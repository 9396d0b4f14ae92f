"""Node and arc types of the PITL hierarchical dataflow graph.

The paper's Figure 1 uses three visual elements, which map onto three node
kinds plus one arc type here:

* oval nodes — sequential **tasks** (:class:`TaskNode` with ``kind=TASK``);
* bold oval nodes — **composite** nodes that expand into a lower-level
  dataflow graph (``kind=COMPOSITE``);
* open rectangles — **storage** (:class:`StorageNode`), labelled with the
  data they contain;
* labelled arrows — **arcs** (:class:`Arc`), labelled with the variable that
  flows along them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

from repro.errors import GraphError, check_finite

#: Default size (abstract data units) attributed to a variable flowing along
#: an arc when the designer does not give one.  One unit corresponds to one
#: scalar; the machine model's transmission speed converts units to time.
DEFAULT_ARC_SIZE = 1.0

#: Default computational weight (abstract operation count) of a task whose
#: PITS program has not been written or costed yet.
DEFAULT_WORK = 1.0


class NodeKind(enum.Enum):
    """Discriminates the three node shapes of a Banger PITL diagram."""

    TASK = "task"
    COMPOSITE = "composite"
    STORAGE = "storage"


def _check_name(name: str) -> str:
    if not isinstance(name, str) or not name:
        raise GraphError(f"node name must be a non-empty string, got {name!r}")
    # split() cuts at exactly the str.isspace() characters
    if name.split() != [name]:
        raise GraphError(f"node name may not contain whitespace: {name!r}")
    return name


@dataclass
class TaskNode:
    """A sequential task (oval) or a hierarchical decomposition (bold oval).

    Parameters
    ----------
    name:
        Unique identifier within its graph.  No whitespace.
    label:
        Free-text comment shown next to the oval (e.g. ``"fanl"``).
    work:
        Estimated operation count of the node's sequential routine; converted
        to execution time by the target machine's processor speed.  For nodes
        with a PITS program the calculator cost model can overwrite this.
    program:
        PITS source text of the node's sequential routine (``None`` until the
        designer writes it on the calculator panel).
    kind:
        ``TASK`` for primitive nodes, ``COMPOSITE`` for bold nodes that carry
        a subgraph.
    """

    name: str
    label: str = ""
    work: float = DEFAULT_WORK
    program: str | None = None
    kind: NodeKind = NodeKind.TASK
    meta: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _check_name(self.name)
        if self.kind is NodeKind.STORAGE:
            raise GraphError(f"TaskNode {self.name!r} cannot have kind STORAGE")
        if self.work < 0:
            raise GraphError(f"task {self.name!r}: work must be >= 0, got {self.work}")
        check_finite(self.work, f"task {self.name!r}: work", GraphError)
        if self.meta:
            _check_finite_meta(self.meta, f"task {self.name!r}: meta value")

    @property
    def is_composite(self) -> bool:
        return self.kind is NodeKind.COMPOSITE

    def __hash__(self) -> int:  # nodes are identified by name within a graph
        return hash(self.name)


def _check_finite_meta(meta: dict[str, Any], what: str) -> None:
    """Refuse a NaN or infinite float anywhere inside ``meta``: replies that
    carry a graph echo it.  Walked without recursion, however deep."""
    todo: list[Any] = [meta]
    while todo:
        value = todo.pop()
        if isinstance(value, dict):
            todo.extend(value.values())
        elif isinstance(value, (list, tuple)):
            todo.extend(value)
        elif isinstance(value, float):
            check_finite(value, what, GraphError)


@dataclass
class StorageNode:
    """An open rectangle holding a named datum (e.g. the matrix ``A``).

    Storage nodes decouple producers from consumers in the drawing; when a
    hierarchical design is flattened to a task graph they are elided and the
    producer→storage→consumer chains become direct task→task edges.

    Parameters
    ----------
    name:
        Unique identifier within its graph.
    data:
        The variable name held (defaults to ``name``).
    size:
        Size of the datum in abstract units, used for communication costing.
    initial:
        Optional initial value (makes this an *input* of the program).
    """

    name: str
    data: str = ""
    size: float = DEFAULT_ARC_SIZE
    initial: Any = None
    meta: dict[str, Any] = field(default_factory=dict)

    kind: NodeKind = field(default=NodeKind.STORAGE, init=False)

    def __post_init__(self) -> None:
        _check_name(self.name)
        if not self.data:
            self.data = self.name
        if self.size <= 0:
            raise GraphError(f"storage {self.name!r}: size must be > 0, got {self.size}")
        check_finite(self.size, f"storage {self.name!r}: size", GraphError)

    def __hash__(self) -> int:
        return hash(self.name)


@dataclass(frozen=True)
class Arc:
    """A directed, variable-labelled arc between two nodes.

    Arcs establish precedence (control or data dependence).  ``var`` names
    the datum flowing along the arc; ``size`` is its size in abstract units
    (defaults to the source storage node's size when flattening).
    """

    src: str
    dst: str
    var: str = ""
    size: float = DEFAULT_ARC_SIZE

    def __post_init__(self) -> None:
        _check_name(self.src)
        _check_name(self.dst)
        if self.src == self.dst:
            raise GraphError(f"self-loop arc on {self.src!r} is not allowed")
        if self.size < 0:
            raise GraphError(f"arc {self.src}->{self.dst}: size must be >= 0")
        check_finite(self.size, f"arc {self.src}->{self.dst}: size", GraphError)

    def renamed(self, src: str | None = None, dst: str | None = None) -> "Arc":
        """Return a copy with endpoints replaced (used during flattening)."""
        return Arc(src or self.src, dst or self.dst, self.var, self.size)
