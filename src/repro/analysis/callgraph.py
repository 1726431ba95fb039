"""Shared interprocedural call-graph and effect-summary machinery.

The static analyzers that reason *across* functions — the
concurrency-effect analyzer (:mod:`~repro.analysis.concurrency`, CONC
rules) and the cross-backend parity analyzer
(:mod:`~repro.analysis.parity`, PAR rules) — share one foundation:

1. every function in the analyzed files goes into a table
   (:class:`FunctionInfo`), keyed by module path and qualified name,
   with its direct shared-state *effects* (reads/writes over the
   :data:`~repro.analysis.context.SHARED_STRUCTURES` vocabulary,
   rooted either at a parameter index or at a concrete receiver
   classification) and its outgoing call edges;
2. ``@repro.analysis.context(...)`` markers seed execution contexts
   and ``@repro.analysis.paired(...)`` markers tag backend-pair
   members; pool boundaries (``pool.run(lambda ...)`` and
   ``configure(task=...)``) seed contexts implicitly;
3. :class:`CallGraph` resolves effects through the call edges:
   parameter-rooted effects substitute the argument's classification
   at each call site, marked callees act as contract boundaries
   contributing their *declared* footprint, and overlay-classified
   receivers are sanctioned and dropped.

The rule catalogs themselves live with their analyzers; this module
only builds the table and answers reachability questions.  It was
extracted verbatim from the concurrency analyzer so both rule families
resolve calls identically — a finding's ``via`` chain means the same
thing in ``repro races`` and ``repro parity`` output.
"""

from __future__ import annotations

import ast
import dataclasses
from collections.abc import Iterable, Sequence
from typing import Optional, Union

#: A function parameter index, or a concrete receiver classification.
Root = Union[int, str]

BASE = "base"
OVERLAY = "overlay"
CHANNEL = "channel"
PROCPOOL = "procpool"
UNKNOWN = "unknown"

#: Classes owning live shared state.
BASE_CLASS_NAMES = frozenset({"GlobalGraph", "DetailedGrid"})

#: Classes implementing the sanctioned speculation surface.
OVERLAY_CLASS_NAMES = frozenset(
    {
        "GraphSnapshot",
        "SanitizedGraphSnapshot",
        "GridOverlay",
        "SanitizedGridOverlay",
        "OverlayDelta",
        "_OwnerOverlay",
    }
)

CHANNEL_CLASS_NAMES = frozenset({"SharedStateChannel"})
PROCESS_POOL_CLASS_NAMES = frozenset({"ProcessBatchExecutor"})

#: Factory/attach methods whose *result* is sanctioned speculation
#: state; calling them is never an effect.
OVERLAY_FACTORY_METHODS = frozenset(
    {"snapshot", "speculative_overlay", "from_overlay", "from_payload"}
)

#: Shared-structure effects of the known vocabulary methods.  These
#: are intrinsics: the call records the effect against the receiver's
#: classification and no call edge is added into the method body.
CALL_EFFECTS: dict[str, tuple[tuple[str, str], ...]] = {
    # global-routing graph
    "edge_demand": (("global.demand", "read"),),
    "edge_capacity": (("global.capacity", "read"),),
    "edge_overflow": (("global.demand", "read"),),
    "total_vertex_overflow": (("global.demand", "read"),),
    "max_vertex_overflow": (("global.demand", "read"),),
    "add_edge_demand": (("global.demand", "write"),),
    "add_vertex_demand": (("global.demand", "write"),),
    "refresh_cost_cache": (("global.cache", "write"),),
    "import_shared_state": (
        ("global.demand", "write"),
        ("global.history", "write"),
        ("global.cache", "write"),
    ),
    "shared_state_arrays": (
        ("global.demand", "read"),
        ("global.history", "read"),
    ),
    # detailed grid
    "owner": (("grid.owner", "read"),),
    "occupied_by": (("grid.owner", "read"),),
    "is_free_for": (("grid.owner", "read"),),
    "is_pin": (("grid.owner", "read"),),
    "occupy": (("grid.owner", "write"),),
    "force_occupy": (("grid.owner", "write"),),
    "release": (("grid.owner", "write"),),
    "mark_pin": (("grid.owner", "write"),),
    "start_journal": (("grid.journal", "write"),),
    "drain_journal": (("grid.journal", "write"),),
    "stop_journal": (("grid.journal", "write"),),
    # shared-memory channel
    "publish": (("channel", "write"),),
    "sync": (("channel", "read"),),
}

#: ``graph.<attr>`` loads/stores that touch shared arrays directly.
ATTR_STRUCTURES: dict[str, str] = {
    "h_demand": "global.demand",
    "v_demand": "global.demand",
    "vertex_demand": "global.demand",
    "h_history": "global.history",
    "v_history": "global.history",
    "vertex_history": "global.history",
    "h_capacity": "global.capacity",
    "v_capacity": "global.capacity",
    "vertex_capacity": "global.capacity",
    "_owner": "grid.owner",
}

#: Name-hint token sets, checked in this order (overlay wins so
#: ``base_overlay`` classifies as sanctioned).
_OVERLAY_TOKENS = frozenset({"overlay", "snapshot", "snap", "delta", "deltas"})
_BASE_TOKENS = frozenset({"graph", "grid", "base"})
_CHANNEL_TOKENS = frozenset({"channel"})
_POOL_TOKENS = frozenset({"pool", "executor"})

#: Identifier tokens marking a value as unordered fan-in results for
#: the CONC005 heuristic.
_FANIN_TOKENS = frozenset(
    {
        "result",
        "results",
        "done",
        "future",
        "futures",
        "deltas",
        "outcomes",
        "outputs",
        "replies",
        "responses",
    }
)

#: Call-chain attribution depth kept on remapped effects.
VIA_CAP = 4


def tokens(name: str) -> frozenset[str]:
    """Lower-case underscore tokens of an identifier."""
    return frozenset(name.lower().lstrip("_").split("_"))


def hint(name: str) -> Optional[str]:
    """Name-based classification fallback for unannotated values."""
    name_tokens = tokens(name)
    if name_tokens & _OVERLAY_TOKENS:
        return OVERLAY
    if name_tokens & _BASE_TOKENS:
        return BASE
    if name_tokens & _CHANNEL_TOKENS:
        return CHANNEL
    return None


def class_classification(name: Optional[str]) -> Optional[str]:
    """Classification of a known class name, if any."""
    if name is None:
        return None
    if name in BASE_CLASS_NAMES:
        return BASE
    if name in OVERLAY_CLASS_NAMES:
        return OVERLAY
    if name in CHANNEL_CLASS_NAMES:
        return CHANNEL
    if name in PROCESS_POOL_CLASS_NAMES:
        return PROCPOOL
    return None


def annotation_name(node: Optional[ast.expr]) -> Optional[str]:
    """The head class name of an annotation expression, if simple."""
    if node is None:
        return None
    expr: ast.expr = node
    if isinstance(expr, ast.Subscript):
        expr = expr.value
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        head = expr.value.split("[", 1)[0].strip()
        return head.rsplit(".", 1)[-1]
    return None


@dataclasses.dataclass(frozen=True)
class Effect:
    """One shared-structure access, rooted at a parameter or concretely."""

    root: Root
    structure: str
    kind: str  # "read" | "write"
    line: int
    col: int
    text: str
    via: tuple[str, ...] = ()


@dataclasses.dataclass
class CallEdge:
    """One outgoing call edge recorded during the function scan."""

    name: str
    is_method: bool
    receiver_root: Root
    pos_roots: list[Root]
    kw_roots: dict[str, Root]
    line: int
    col: int
    text: str


@dataclasses.dataclass
class LambdaScan:
    """Effects/calls of a lambda passed to a pool ``run()`` boundary."""

    effects: list[Effect]
    calls: list[CallEdge]


@dataclasses.dataclass
class Syntactic:
    """A rule breach detected purely locally (CONC003/5/6 candidates)."""

    rule: str
    detail: str
    line: int
    col: int
    text: str


@dataclasses.dataclass
class FunctionInfo:
    """One table entry: a function plus everything the scan extracted."""

    path: str
    qualname: str
    name: str
    cls: Optional[str]
    params: list[str]
    annotations: dict[int, Optional[str]]
    context: Optional[str] = None
    declared_reads: Optional[tuple[str, ...]] = None
    declared_writes: Optional[tuple[str, ...]] = None
    implicit_context: Optional[str] = None
    pair: Optional[str] = None
    pair_backend: Optional[str] = None
    effects: list[Effect] = dataclasses.field(default_factory=list)
    calls: list[CallEdge] = dataclasses.field(default_factory=list)
    syntactic: list[Syntactic] = dataclasses.field(default_factory=list)
    run_lambdas: list[LambdaScan] = dataclasses.field(default_factory=list)
    configure_tasks: list[str] = dataclasses.field(default_factory=list)

    @property
    def effective_context(self) -> Optional[str]:
        return self.context if self.context is not None else (
            self.implicit_context
        )

    def seed_root(self, index: int) -> str:
        """Classify parameter ``index`` when this function is a seed."""
        if index >= len(self.params):
            return UNKNOWN
        name = self.params[index]
        if index == 0 and self.cls is not None and name in ("self", "cls"):
            return class_classification(self.cls) or UNKNOWN
        by_annotation = class_classification(self.annotations.get(index))
        if by_annotation in (BASE, OVERLAY, CHANNEL):
            return by_annotation
        return hint(name) or UNKNOWN


def parse_context_decorator(
    node: Union[ast.FunctionDef, ast.AsyncFunctionDef],
) -> Optional[tuple[str, Optional[tuple[str, ...]], Optional[tuple[str, ...]]]]:
    """Extract ``@context(kind, reads=..., writes=...)`` if present."""
    for decorator in node.decorator_list:
        if not isinstance(decorator, ast.Call):
            continue
        func = decorator.func
        name = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute) else None
        )
        if name != "context":
            continue
        if not decorator.args:
            continue
        kind_node = decorator.args[0]
        if not (
            isinstance(kind_node, ast.Constant)
            and isinstance(kind_node.value, str)
        ):
            continue
        footprints: dict[str, Optional[tuple[str, ...]]] = {
            "reads": None,
            "writes": None,
        }
        for keyword in decorator.keywords:
            if keyword.arg not in footprints:
                continue
            value = keyword.value
            if isinstance(value, (ast.Tuple, ast.List)):
                names = tuple(
                    element.value
                    for element in value.elts
                    if isinstance(element, ast.Constant)
                    and isinstance(element.value, str)
                )
                footprints[keyword.arg] = names
            elif isinstance(value, ast.Constant) and value.value is None:
                footprints[keyword.arg] = None
        return kind_node.value, footprints["reads"], footprints["writes"]
    return None


def parse_paired_decorator(
    node: Union[ast.FunctionDef, ast.AsyncFunctionDef],
) -> Optional[tuple[str, str]]:
    """Extract ``@paired(pair, backend=...)`` if present."""
    for decorator in node.decorator_list:
        if not isinstance(decorator, ast.Call):
            continue
        func = decorator.func
        name = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute) else None
        )
        if name != "paired":
            continue
        if not decorator.args:
            continue
        pair_node = decorator.args[0]
        if not (
            isinstance(pair_node, ast.Constant)
            and isinstance(pair_node.value, str)
        ):
            continue
        for keyword in decorator.keywords:
            if keyword.arg != "backend":
                continue
            value = keyword.value
            if isinstance(value, ast.Constant) and isinstance(
                value.value, str
            ):
                return pair_node.value, value.value
    return None


class FunctionScanner(ast.NodeVisitor):
    """Single-function walk extracting effects, calls, and syntactics.

    Bindings map local names to roots: a parameter index, or a
    concrete classification learned from an annotation, constructor,
    or factory call.  Free names fall back to name hints — except
    names bound in an enclosing function (closures), which stay
    unknown: the closed-over value's identity belongs to the parent's
    scope, not to this function's signature.
    """

    def __init__(
        self,
        info: FunctionInfo,
        lines: Sequence[str],
        outer_names: frozenset[str],
    ) -> None:
        self.info = info
        self.lines = lines
        self.outer_names = outer_names
        self.bindings: dict[str, Root] = {}
        #: Names with a statically exact class (for CONC003 gating).
        self.exact_class: dict[str, str] = {}
        #: Locally defined nested-function names (CONC003 captures).
        self.local_defs: set[str] = set()
        #: Local names bound to ``set(<fan-in results>)`` (CONC005).
        self.fanin_sets: set[str] = set()
        #: Attribute nodes already recorded by an enclosing handler.
        self._claimed: set[int] = set()
        #: Effect/call sinks — swapped while scanning a run-lambda.
        self._effects = info.effects
        self._calls = info.calls
        for index, name in enumerate(info.params):
            self.bindings[name] = index
            annotation = info.annotations.get(index)
            if annotation in PROCESS_POOL_CLASS_NAMES:
                self.exact_class[name] = annotation

    # -- plumbing ------------------------------------------------------
    def _site(self, node: ast.AST) -> tuple[int, int, str]:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        text = ""
        if 1 <= line <= len(self.lines):
            text = self.lines[line - 1].strip()
        return line, col, text

    def _record(
        self, node: ast.AST, root: Root, structure: str, kind: str
    ) -> None:
        if root in (OVERLAY, UNKNOWN, PROCPOOL):
            return
        line, col, text = self._site(node)
        self._effects.append(
            Effect(
                root=root,
                structure=structure,
                kind=kind,
                line=line,
                col=col,
                text=text,
            )
        )

    def _syntactic(self, node: ast.AST, rule: str, detail: str) -> None:
        line, col, text = self._site(node)
        self.info.syntactic.append(
            Syntactic(rule=rule, detail=detail, line=line, col=col, text=text)
        )

    # -- classification ------------------------------------------------
    def _classify(self, node: ast.expr) -> Root:
        if isinstance(node, ast.Name):
            if node.id in self.bindings:
                return self.bindings[node.id]
            if node.id in self.outer_names:
                return UNKNOWN
            classified = class_classification(node.id)
            if classified is not None:
                return classified
            return hint(node.id) or UNKNOWN
        if isinstance(node, ast.Attribute):
            return hint(node.attr) or UNKNOWN
        if isinstance(node, ast.Subscript):
            index = node.slice
            if isinstance(index, ast.Constant) and isinstance(
                index.value, str
            ):
                return hint(index.value) or UNKNOWN
            return UNKNOWN
        if isinstance(node, ast.Call):
            return self._classify_call(node)
        if isinstance(node, ast.IfExp):
            body = self._classify(node.body)
            orelse = self._classify(node.orelse)
            return body if body == orelse else UNKNOWN
        return UNKNOWN

    def _classify_call(self, node: ast.Call) -> Root:
        func = node.func
        if isinstance(func, ast.Name):
            return class_classification(func.id) or UNKNOWN
        if isinstance(func, ast.Attribute):
            if func.attr in OVERLAY_FACTORY_METHODS:
                return OVERLAY
            if func.attr in ("create", "attach"):
                receiver = func.value
                if (
                    isinstance(receiver, ast.Name)
                    and receiver.id in CHANNEL_CLASS_NAMES
                ) or self._classify(receiver) == CHANNEL:
                    return CHANNEL
        return UNKNOWN

    def _is_exact_procpool(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            return self.exact_class.get(node.id) in PROCESS_POOL_CLASS_NAMES
        return self._classify(node) == PROCPOOL

    def _is_poolish(self, node: ast.expr) -> bool:
        if self._is_exact_procpool(node):
            return True
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        return name is not None and bool(tokens(name) & _POOL_TOKENS)

    # -- statements ----------------------------------------------------
    def scan(self, body: Sequence[ast.stmt]) -> None:
        for statement in body:
            self.visit(statement)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # Nested defs are separate table entries; only note the name
        # so CONC003 can spot them crossing a process-pool boundary.
        self.local_defs.add(node.name)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self.local_defs.add(node.name)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        pass  # local classes: methods become their own table entries

    def visit_Assign(self, node: ast.Assign) -> None:
        self.generic_visit(node)
        root = self._classify(node.value)
        exact: Optional[str] = None
        if isinstance(node.value, ast.Call) and isinstance(
            node.value.func, ast.Name
        ):
            if node.value.func.id in PROCESS_POOL_CLASS_NAMES:
                exact = node.value.func.id
        for target in node.targets:
            if isinstance(target, ast.Name):
                self.bindings[target.id] = root
                if exact is not None:
                    self.exact_class[target.id] = exact
                else:
                    self.exact_class.pop(target.id, None)
                self._track_fanin(target.id, node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self.generic_visit(node)
        if not isinstance(node.target, ast.Name):
            return
        annotation = annotation_name(node.annotation)
        classified = class_classification(annotation)
        if classified is not None:
            self.bindings[node.target.id] = classified
        elif node.value is not None:
            self.bindings[node.target.id] = self._classify(node.value)
        if annotation in PROCESS_POOL_CLASS_NAMES:
            self.exact_class[node.target.id] = annotation
        if node.value is not None:
            self._track_fanin(node.target.id, node.value)

    def _track_fanin(self, name: str, value: ast.expr) -> None:
        if self._is_fanin_set_expr(value):
            self.fanin_sets.add(name)
        else:
            self.fanin_sets.discard(name)

    @staticmethod
    def _is_fanin_set_expr(value: ast.expr) -> bool:
        if not (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in ("set", "frozenset")
            and value.args
        ):
            return False
        argument = value.args[0]
        name = None
        if isinstance(argument, ast.Name):
            name = argument.id
        elif isinstance(argument, ast.Attribute):
            name = argument.attr
        elif (
            isinstance(argument, ast.Call)
            and isinstance(argument.func, ast.Attribute)
            and argument.func.attr == "run"
        ):
            # ``set(pool.run(...))`` — the fan-in producer itself.
            return True
        return name is not None and bool(tokens(name) & _FANIN_TOKENS)

    # -- CONC005: fan-in order -----------------------------------------
    def visit_For(self, node: ast.For) -> None:
        iterable = node.iter
        if (
            isinstance(iterable, ast.Name)
            and iterable.id in self.fanin_sets
        ) or self._is_fanin_set_expr(iterable):
            self._syntactic(
                iterable,
                "CONC005",
                "iterating fan-in results in set (hash) order",
            )
        self.generic_visit(node)

    # -- effects: attribute / subscript access -------------------------
    def visit_Attribute(self, node: ast.Attribute) -> None:
        structure = ATTR_STRUCTURES.get(node.attr)
        if structure is not None and id(node) not in self._claimed:
            root = self._classify(node.value)
            if isinstance(node.ctx, ast.Load):
                self._record(node, root, structure, "read")
            else:
                self._record(node, root, structure, "write")
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if isinstance(node.ctx, (ast.Store, ast.Del)) and isinstance(
            node.value, ast.Attribute
        ):
            structure = ATTR_STRUCTURES.get(node.value.attr)
            if structure is not None:
                root = self._classify(node.value.value)
                self._record(node, root, structure, "write")
                self._claimed.add(id(node.value))
        self.generic_visit(node)

    # -- calls ---------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id == "as_completed":
                self._syntactic(
                    node,
                    "CONC005",
                    "as_completed() yields results in completion order",
                )
            elif class_classification(func.id) is None:
                self._add_call_edge(node, func.id, is_method=False)
        elif isinstance(func, ast.Attribute):
            self._visit_method_call(node, func)
        self.generic_visit(node)

    def _visit_method_call(self, node: ast.Call, func: ast.Attribute) -> None:
        attr = func.attr
        if attr == "as_completed":
            self._syntactic(
                node,
                "CONC005",
                "as_completed() yields results in completion order",
            )
            return
        if (
            attr == "pop"
            and not node.args
            and isinstance(func.value, ast.Name)
            and func.value.id in self.fanin_sets
        ):
            self._syntactic(
                node,
                "CONC005",
                "set.pop() drains fan-in results in hash order",
            )
            return
        if attr in CALL_EFFECTS:
            root = self._classify(func.value)
            for structure, kind in CALL_EFFECTS[attr]:
                self._record(node, root, structure, kind)
            return
        if attr in OVERLAY_FACTORY_METHODS:
            return  # sanctioned: result classification happens on bind
        if attr == "run":
            self._visit_pool_run(node, func)
            return
        if attr == "configure":
            self._visit_pool_configure(node, func)
            return
        if attr in ("create", "attach") and self._classify_call(
            node
        ) == CHANNEL:
            return  # channel factories are contract boundaries
        self._add_call_edge(
            node, attr, is_method=True, receiver=func.value
        )

    def _visit_pool_run(self, node: ast.Call, func: ast.Attribute) -> None:
        if not self._is_poolish(func.value):
            self._add_call_edge(
                node, "run", is_method=True, receiver=func.value
            )
            return
        for argument in node.args:
            if isinstance(argument, ast.Lambda):
                if self._is_exact_procpool(func.value):
                    self._syntactic(
                        argument,
                        "CONC003",
                        "lambda task cannot cross the process boundary",
                    )
                self._scan_run_lambda(argument)
                self._claimed.add(id(argument))

    def visit_Lambda(self, node: ast.Lambda) -> None:
        if id(node) in self._claimed:
            return  # already scanned as a pool-run pseudo-seed
        self.generic_visit(node)

    def _visit_pool_configure(
        self, node: ast.Call, func: ast.Attribute
    ) -> None:
        if not self._is_poolish(func.value):
            return
        exact = self._is_exact_procpool(func.value)
        for keyword in node.keywords:
            if keyword.arg not in ("task", "initializer"):
                continue
            value = keyword.value
            if isinstance(value, ast.Lambda):
                if exact:
                    self._syntactic(
                        value,
                        "CONC003",
                        f"lambda {keyword.arg} cannot cross the process"
                        " boundary",
                    )
            elif isinstance(value, ast.Name):
                if value.id in self.local_defs:
                    if exact:
                        self._syntactic(
                            value,
                            "CONC003",
                            f"nested function {value.id!r} captures its"
                            " closure across the process boundary",
                        )
                else:
                    self.info.configure_tasks.append(value.id)
            elif isinstance(value, ast.Attribute) and exact:
                self._syntactic(
                    value,
                    "CONC003",
                    f"bound method {value.attr!r} pickles its whole"
                    " instance across the process boundary",
                )

    def _scan_run_lambda(self, node: ast.Lambda) -> None:
        """Scan a pool-run lambda as a speculative pseudo-seed."""
        scan = LambdaScan(effects=[], calls=[])
        saved_effects, saved_calls = self._effects, self._calls
        saved_bindings = dict(self.bindings)
        self._effects, self._calls = scan.effects, scan.calls
        for argument in (
            list(node.args.posonlyargs)
            + list(node.args.args)
            + list(node.args.kwonlyargs)
        ):
            self.bindings[argument.arg] = hint(argument.arg) or UNKNOWN
        try:
            self.visit(node.body)
        finally:
            self._effects, self._calls = saved_effects, saved_calls
            self.bindings = saved_bindings
        self.info.run_lambdas.append(scan)

    def _add_call_edge(
        self,
        node: ast.Call,
        name: str,
        *,
        is_method: bool,
        receiver: Optional[ast.expr] = None,
    ) -> None:
        line, col, text = self._site(node)
        receiver_root: Root = UNKNOWN
        if receiver is not None:
            receiver_root = self._classify(receiver)
        self._calls.append(
            CallEdge(
                name=name,
                is_method=is_method,
                receiver_root=receiver_root,
                pos_roots=[self._classify(arg) for arg in node.args],
                kw_roots={
                    keyword.arg: self._classify(keyword.value)
                    for keyword in node.keywords
                    if keyword.arg is not None
                },
                line=line,
                col=col,
                text=text,
            )
        )


def _is_alloc_call(node: ast.Call) -> bool:
    """Whether ``node`` allocates an owned shared-memory resource."""
    func = node.func
    if isinstance(func, ast.Name):
        if func.id == "_create_segment":
            return True
        if func.id == "SharedMemory":
            return any(
                keyword.arg == "create"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True
                for keyword in node.keywords
            )
        return False
    if isinstance(func, ast.Attribute):
        if func.attr == "SharedMemory":
            return any(
                keyword.arg == "create"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True
                for keyword in node.keywords
            )
        if func.attr == "create":
            return (
                isinstance(func.value, ast.Name)
                and func.value.id in CHANNEL_CLASS_NAMES
            )
    return False


class AllocScanner(ast.NodeVisitor):
    """CONC006: shared-memory allocations without a cleanup path.

    An allocation is exempt when it is

    * inside a ``try`` whose handlers or ``finally`` call ``close()``
      or ``unlink()`` (cleanup on the failure path),
    * bound to a name whose ``close()``/``unlink()`` appears inside an
      ``except``/``finally`` block later in the same scope (failure-
      path cleanup of an allocation made before the ``try``),
    * returned from the function (ownership transfers to the caller),
    * or stored on ``self`` (ownership transfers to the instance,
      whose lifecycle methods own cleanup).
    """

    def __init__(
        self, info: FunctionInfo, lines: Sequence[str]
    ) -> None:
        self.info = info
        self.lines = lines
        self._protected = 0
        self._returned_names: set[str] = set()
        self._cleanup_names: set[str] = set()

    def scan(self, body: Sequence[ast.stmt]) -> None:
        for statement in body:
            for walked in ast.walk(statement):
                if isinstance(walked, ast.Return) and walked.value is not None:
                    for name in ast.walk(walked.value):
                        if isinstance(name, ast.Name):
                            self._returned_names.add(name.id)
                if isinstance(walked, ast.Try):
                    cleanup: list[ast.stmt] = list(walked.finalbody)
                    for handler in walked.handlers:
                        cleanup.extend(handler.body)
                    self._cleanup_names |= self._cleaned_names(cleanup)
        for statement in body:
            self.visit(statement)

    @staticmethod
    def _cleaned_names(statements: Iterable[ast.stmt]) -> set[str]:
        names: set[str] = set()
        for statement in statements:
            for node in ast.walk(statement):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("close", "unlink")
                    and isinstance(node.func.value, ast.Name)
                ):
                    names.add(node.func.value.id)
        return names

    # -- structure -----------------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass  # nested defs are scanned as their own table entries

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        pass

    @staticmethod
    def _has_cleanup(statements: Iterable[ast.stmt]) -> bool:
        for statement in statements:
            for node in ast.walk(statement):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("close", "unlink")
                ):
                    return True
        return False

    def visit_Try(self, node: ast.Try) -> None:
        cleanup: list[ast.stmt] = list(node.finalbody)
        for handler in node.handlers:
            cleanup.extend(handler.body)
        protected = self._has_cleanup(cleanup)
        if protected:
            self._protected += 1
        for statement in node.body:
            self.visit(statement)
        if protected:
            self._protected -= 1
        for statement in node.orelse:
            self.visit(statement)
        for handler in node.handlers:
            for statement in handler.body:
                self.visit(statement)
        for statement in node.finalbody:
            self.visit(statement)

    # -- allocation sites ----------------------------------------------
    def _exempt_assignment(self, targets: Iterable[ast.expr]) -> bool:
        for target in targets:
            if isinstance(target, ast.Attribute) and isinstance(
                target.value, ast.Name
            ):
                if target.value.id in ("self", "cls"):
                    return True
            if isinstance(target, ast.Name) and (
                target.id in self._returned_names
                or target.id in self._cleanup_names
            ):
                return True
        return False

    def _check_value(
        self, value: Optional[ast.expr], exempt: bool
    ) -> None:
        if value is None:
            return
        for node in ast.walk(value):
            if not (isinstance(node, ast.Call) and _is_alloc_call(node)):
                continue
            if exempt or self._protected > 0:
                continue
            line = getattr(node, "lineno", 1)
            col = getattr(node, "col_offset", 0)
            text = ""
            if 1 <= line <= len(self.lines):
                text = self.lines[line - 1].strip()
            self.info.syntactic.append(
                Syntactic(
                    rule="CONC006",
                    detail="shared-memory segment leaks if this scope"
                    " unwinds before cleanup",
                    line=line,
                    col=col,
                    text=text,
                )
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        self._check_value(node.value, self._exempt_assignment(node.targets))

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._check_value(
            node.value, self._exempt_assignment([node.target])
        )

    def visit_Return(self, node: ast.Return) -> None:
        pass  # returning the allocation transfers ownership

    def visit_Expr(self, node: ast.Expr) -> None:
        self._check_value(node.value, False)


def assigned_names(
    node: Union[ast.FunctionDef, ast.AsyncFunctionDef],
) -> frozenset[str]:
    """Parameters plus every name the function body binds."""
    names = {
        argument.arg
        for argument in (
            list(node.args.posonlyargs)
            + list(node.args.args)
            + list(node.args.kwonlyargs)
        )
    }
    if node.args.vararg is not None:
        names.add(node.args.vararg.arg)
    if node.args.kwarg is not None:
        names.add(node.args.kwarg.arg)
    for walked in ast.walk(node):
        if isinstance(walked, ast.Name) and isinstance(
            walked.ctx, (ast.Store, ast.Del)
        ):
            names.add(walked.id)
    return frozenset(names)


_IN_PROGRESS = "in-progress"


class CallGraph:
    """The function table plus interprocedural effect resolution.

    Construction parses every file, scans every function
    (:class:`FunctionScanner` for effects/calls/syntactics,
    :class:`AllocScanner` for CONC006 candidates), seeds implicit
    worker-process contexts from ``configure(task=...)`` boundaries,
    and indexes the table by bare function name for call resolution.
    Subclasses (the CONC and PAR analyzers) layer their rule judgments
    on top.
    """

    def __init__(self, files: Sequence[tuple[str, str]]) -> None:
        self.table: list[FunctionInfo] = []
        self._by_name: dict[str, list[FunctionInfo]] = {}
        self._memo: dict[
            tuple[str, str], Union[str, list[Effect]]
        ] = {}
        for path, source in files:
            tree = ast.parse(source, filename=path)
            lines = source.splitlines()
            self._collect(
                tree.body,
                path=path,
                lines=lines,
                cls=None,
                prefix="",
                outer_names=frozenset(),
            )
        for info in self.table:
            self._by_name.setdefault(info.name, []).append(info)
        self._seed_implicit_contexts()

    # -- table construction --------------------------------------------
    def _collect(
        self,
        body: Sequence[ast.stmt],
        *,
        path: str,
        lines: Sequence[str],
        cls: Optional[str],
        prefix: str,
        outer_names: frozenset[str],
    ) -> None:
        for statement in body:
            if isinstance(
                statement, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                self._collect_function(
                    statement,
                    path=path,
                    lines=lines,
                    cls=cls,
                    prefix=prefix,
                    outer_names=outer_names,
                )
            elif isinstance(statement, ast.ClassDef):
                self._collect(
                    statement.body,
                    path=path,
                    lines=lines,
                    cls=statement.name,
                    prefix=f"{prefix}{statement.name}.",
                    outer_names=outer_names,
                )

    def _collect_function(
        self,
        node: Union[ast.FunctionDef, ast.AsyncFunctionDef],
        *,
        path: str,
        lines: Sequence[str],
        cls: Optional[str],
        prefix: str,
        outer_names: frozenset[str],
    ) -> None:
        all_args = (
            list(node.args.posonlyargs)
            + list(node.args.args)
            + list(node.args.kwonlyargs)
        )
        params = [argument.arg for argument in all_args]
        annotations = {
            index: annotation_name(argument.annotation)
            for index, argument in enumerate(all_args)
        }
        info = FunctionInfo(
            path=path,
            qualname=f"{prefix}{node.name}",
            name=node.name,
            cls=cls,
            params=params,
            annotations=annotations,
        )
        marker = parse_context_decorator(node)
        if marker is not None:
            info.context, info.declared_reads, info.declared_writes = marker
        pair_marker = parse_paired_decorator(node)
        if pair_marker is not None:
            info.pair, info.pair_backend = pair_marker
        self.table.append(info)
        FunctionScanner(info, lines, outer_names).scan(node.body)
        AllocScanner(info, lines).scan(node.body)
        nested_outer = outer_names | assigned_names(node)
        self._collect(
            node.body,
            path=path,
            lines=lines,
            cls=None,
            prefix=f"{prefix}{node.name}.",
            outer_names=nested_outer,
        )

    # -- implicit contexts ---------------------------------------------
    def _seed_implicit_contexts(self) -> None:
        for info in self.table:
            for task_name in info.configure_tasks:
                for callee in self.resolve_name(
                    task_name, info, is_method=False
                ):
                    if callee.context is None:
                        callee.implicit_context = "worker-process"

    # -- call resolution -----------------------------------------------
    def resolve_name(
        self, name: str, caller: FunctionInfo, *, is_method: bool
    ) -> list[FunctionInfo]:
        """Candidate callees for a call to ``name`` from ``caller``.

        Same-module definitions are preferred; ambiguous names (more
        than four candidates) resolve to nothing rather than fanning
        the analysis out over unrelated code.
        """
        candidates = [
            candidate
            for candidate in self._by_name.get(name, [])
            if (candidate.cls is not None) == is_method
        ]
        same_module = [
            candidate
            for candidate in candidates
            if candidate.path == caller.path
        ]
        picked = same_module or candidates
        if not picked or len(picked) > 4:
            return []
        return picked

    def call_arg_root(
        self, call: CallEdge, callee: FunctionInfo, index: int
    ) -> Root:
        """The caller-side root flowing into parameter ``index``."""
        if index >= len(callee.params):
            return UNKNOWN
        position = index
        if call.is_method and callee.cls is not None:
            if index == 0:
                return call.receiver_root
            position = index - 1
        if position < len(call.pos_roots):
            return call.pos_roots[position]
        name = callee.params[index]
        if name in call.kw_roots:
            return call.kw_roots[name]
        return UNKNOWN

    def _remap(
        self, effect: Effect, call: CallEdge, callee: FunctionInfo
    ) -> Optional[Effect]:
        root = effect.root
        if isinstance(root, int):
            root = self.call_arg_root(call, callee, root)
        if not (isinstance(root, int) or root in (BASE, CHANNEL)):
            return None
        return Effect(
            root=root,
            structure=effect.structure,
            kind=effect.kind,
            line=call.line,
            col=call.col,
            text=call.text,
            via=((callee.name,) + effect.via)[:VIA_CAP],
        )

    def call_contributions(
        self, call: CallEdge, caller: FunctionInfo
    ) -> list[Effect]:
        """Effects the callee(s) of ``call`` contribute to ``caller``."""
        out: list[Effect] = []
        for callee in self.resolve_name(
            call.name, caller, is_method=call.is_method
        ):
            if callee is caller:
                continue
            if callee.effective_context is not None:
                # Contract boundary: the declared footprint stands in
                # for the body, which is checked as its own seed.
                for kind, declared in (
                    ("read", callee.declared_reads),
                    ("write", callee.declared_writes),
                ):
                    for structure in declared or ():
                        out.append(
                            Effect(
                                root=CHANNEL
                                if structure == "channel"
                                else BASE,
                                structure=structure,
                                kind=kind,
                                line=call.line,
                                col=call.col,
                                text=call.text,
                                via=(callee.name,),
                            )
                        )
                continue
            for effect in self.summary(callee):
                remapped = self._remap(effect, call, callee)
                if remapped is not None:
                    out.append(remapped)
        return out

    def summary(self, info: FunctionInfo) -> list[Effect]:
        """Memoized transitive effect summary of one function."""
        key = (info.path, info.qualname)
        memo = self._memo.get(key)
        if memo == _IN_PROGRESS:
            return []
        if isinstance(memo, list):
            return memo
        self._memo[key] = _IN_PROGRESS
        out = [
            effect
            for effect in info.effects
            if isinstance(effect.root, int)
            or effect.root in (BASE, CHANNEL)
        ]
        for call in info.calls:
            out.extend(self.call_contributions(call, info))
        self._memo[key] = out
        return out


__all__ = [
    "ATTR_STRUCTURES",
    "BASE",
    "BASE_CLASS_NAMES",
    "CALL_EFFECTS",
    "CHANNEL",
    "CHANNEL_CLASS_NAMES",
    "CallEdge",
    "CallGraph",
    "Effect",
    "FunctionInfo",
    "FunctionScanner",
    "AllocScanner",
    "LambdaScan",
    "OVERLAY",
    "OVERLAY_CLASS_NAMES",
    "OVERLAY_FACTORY_METHODS",
    "PROCESS_POOL_CLASS_NAMES",
    "PROCPOOL",
    "Root",
    "Syntactic",
    "UNKNOWN",
    "VIA_CAP",
    "annotation_name",
    "assigned_names",
    "class_classification",
    "hint",
    "parse_context_decorator",
    "parse_paired_decorator",
    "tokens",
]
