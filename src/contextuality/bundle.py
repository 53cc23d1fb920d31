"""Bundle diagrams: the support of a pairwise behavior drawn as a graph.

The base is the set of measurements; above each sits its fiber of outcomes.
Every possible joint outcome of a context becomes an edge between two fiber
points, flagged with whether it extends to a global assignment consistent
with the whole support. A noncontextual-support behavior has every edge
flagged true; a logical paradox shows up as a possible edge flagged false;
strong contextuality turns every flag false.
"""
from __future__ import annotations

from dataclasses import dataclass

from .behavior import AnyBehavior, joint_outcomes
from .classical import _scan
from .scenario import require_pairs


@dataclass(frozen=True)
class BundleEdge:
    """One possible joint outcome: context index (1-based, stored order),
    its two endpoints as (measurement, outcome), and whether some global
    assignment over the support passes through both."""

    context_index: int
    left: tuple[str, str]
    right: tuple[str, str]
    in_some_loop: bool

    def to_json_dict(self) -> dict:
        return {
            "context": self.context_index,
            "left": list(self.left),
            "right": list(self.right),
            "in_some_loop": self.in_some_loop,
        }


@dataclass(frozen=True)
class BundleDiagram:
    base: tuple[str, ...]
    fibers: dict[str, tuple[str, ...]]
    edges: tuple[BundleEdge, ...]

    def to_json_dict(self) -> dict:
        return {
            "base": list(self.base),
            "fibers": {m: list(v) for m, v in self.fibers.items()},
            "edges": [e.to_json_dict() for e in self.edges],
        }

    def to_dot(self) -> str:
        """Graphviz source, deterministic for a given diagram: one cluster
        per measurement, solid edges inside some loop, dashed edges not."""
        lines = ["graph bundle {", "  node [shape=circle fontsize=10];"]
        for m in self.base:
            lines.append(f'  subgraph "cluster_{m}" {{')
            lines.append(f'    label="{m}";')
            for o in self.fibers[m]:
                lines.append(f'    "{m}={o}";')
            lines.append("  }")
        for e in self.edges:
            style = "solid" if e.in_some_loop else "dashed"
            lines.append(
                f'  "{e.left[0]}={e.left[1]}" -- "{e.right[0]}={e.right[1]}"'
                f" [style={style}];"
            )
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_bundle(b: AnyBehavior, cap: int | None = None) -> BundleDiagram:
    """Compute the bundle diagram of a behavior on a pairwise scenario.

    :raises NonSimpleScenario: if some context is not a pair.
    :raises EnumerationCapExceeded: if the support scan would exceed cap.
    """
    s = b.scenario
    require_pairs(s)
    found = _scan(b, cap)
    edges = []
    for ci, c in enumerate(s.contexts):
        u, v = c
        for k, cell in enumerate(joint_outcomes(s, c)):
            if found.possible[ci][k]:
                edges.append(BundleEdge(ci + 1, (u, cell[0]), (v, cell[1]), k in found.covered[ci]))
    return BundleDiagram(
        base=s.measurements,
        fibers={m: s.outcomes[m] for m in s.measurements},
        edges=tuple(edges),
    )
