"""simsan's static half: interprocedural lock-order & aliasing analysis.

These are :class:`~repro.lint.rules.ProjectRule`\\ s — they see every parsed
module of a run at once, build a call graph, and propagate *effect
summaries* (lock acquisitions, sim-event yields, parameter mutations)
through resolved calls. Four rules ride on the shared index:

========  ==========================================================
SIM107    inconsistent lock acquisition order between two code paths
          — the classic AB/BA deadlock shape, detected as a cycle in
          the project-wide acquired-while-holding graph
SIM108    an object aliased into a ``send()``/``append_redo()``/
          ``reply()`` payload and mutated afterwards in the same
          function or a callee — what ships to a geo-replica is no
          longer what the sender committed
SIM109    ``yield`` of a sim event while holding a ``LockTable`` lock
          outside the commit path — the lock is held across an
          arbitrary simulated wait, starving every contender
SIM110    mutable module-level state reachable from more than one sim
          process and mutated without any lock — cross-process shared
          state whose interleaving is invisible at any call site
========  ==========================================================

Approximations (all deliberately conservative, documented in DESIGN.md):

- Calls resolve to same-module top-level functions, ``self.`` methods of
  the enclosing class, and imported module functions. Everything else is
  opaque (no effects assumed except that an unresolved ``yield from``
  waits).
- Lock identity is a static token: ``table:<literal>`` when the table
  argument is a string constant, else the argument's source text — two
  dynamic acquisitions through the same expression never form an order
  edge, so loops over dynamic keys don't self-report.
- SIM108 tracks *local names* in textual order; rebinding a name kills
  its alias. ``self``/``cls`` attribute state is out of scope.
- SIM109 exempts functions whose qualified name matches the commit path
  (``commit|prepare|abort|2pc``): holding row locks across the commit
  protocol's replication waits is the paper's design, not a bug.
"""

from __future__ import annotations

import ast
import re
import typing
from dataclasses import dataclass

from repro.lint.rules import Finding, Module, Project, ProjectRule, register
from repro.lint.typeinfo import _walk_function_body
from repro.lint.visitors import import_map, is_generator_function

_COMMIT_PATH_RE = re.compile(r"commit|prepare|abort|2pc", re.IGNORECASE)
_LOCK_HINT = "lock"
_SEND_ATTRS = frozenset({"reply", "append_redo"})
_SEND_RECEIVER_HINTS = ("net", "link", "chan", "sock", "bus", "endpoint",
                        "conn", "transport")
_WAL_HINTS = ("wal", "redo")
_MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "pop", "popitem",
    "remove", "discard", "clear", "setdefault", "sort", "reverse",
})
_MUTABLE_FACTORIES = frozenset({
    "list", "dict", "set", "bytearray", "defaultdict", "deque", "Counter",
    "OrderedDict",
})
#: Caps keeping the analysis linear on adversarial inputs.
_TRACE_CAP = 256
_SEQ_CAP = 64


def _text(node: ast.AST) -> str:
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse failure on exotic nodes
        return ""


def _is_lockish(receiver: ast.expr) -> bool:
    return _LOCK_HINT in _text(receiver).lower()


def _is_acquire(call: ast.Call) -> bool:
    return (isinstance(call.func, ast.Attribute)
            and call.func.attr == "acquire"
            and _is_lockish(call.func.value))


def _is_release_all(call: ast.Call) -> bool:
    return (isinstance(call.func, ast.Attribute)
            and call.func.attr == "release_all"
            and _is_lockish(call.func.value))


def _is_send(call: ast.Call) -> bool:
    func = call.func
    if not isinstance(func, ast.Attribute):
        return False
    if func.attr in _SEND_ATTRS:
        return True
    receiver = _text(func.value).lower()
    if func.attr == "send":
        # ``generator.send(value)`` is the generator protocol, not the
        # network — require a transport-ish receiver.
        return any(hint in receiver for hint in _SEND_RECEIVER_HINTS)
    if func.attr == "append":
        return any(hint in receiver for hint in _WAL_HINTS)
    return False


def _lock_token(call: ast.Call) -> str:
    """Static identity of the lock being acquired.

    ``locks.acquire(txid, "warehouse", key)`` -> ``table:warehouse``;
    a dynamic table argument falls back to its source text, so repeated
    acquisitions through one expression share a token (no false edges).
    """
    if len(call.args) >= 2:
        table = call.args[1]
        if isinstance(table, ast.Constant) and isinstance(table.value, str):
            return f"table:{table.value}"
        return _text(table) or "<dynamic>"
    if call.args:
        return _text(call.args[0]) or "<dynamic>"
    return _text(call.func.value) or "<dynamic>"


#: Calls known to produce a fresh container: their arguments are copied,
#: not aliased, so they break the taint chain in SIM108.
_COPY_CALLS = frozenset({"list", "tuple", "dict", "set", "frozenset",
                         "sorted", "bytes", "copy", "deepcopy"})


def _expr_names(expr: ast.expr) -> tuple[str, ...]:
    """Local names an expression's value may alias.

    Call targets and ``self``/``cls`` are excluded, and the argument
    subtrees of known copy constructors (``list(rows)``, ``rows.copy()``,
    ``deepcopy(rows)``) are skipped — a fresh container does not alias
    what it was built from.
    """
    names: list[str] = []
    seen: set[str] = set()

    def visit(node: ast.AST) -> None:
        if isinstance(node, ast.Call):
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute)
                    else None)
            if name in _COPY_CALLS:
                return
            for arg in node.args:
                visit(arg)
            for keyword in node.keywords:
                visit(keyword.value)
            if isinstance(func, ast.Attribute):
                visit(func.value)
            return
        if isinstance(node, ast.Name):
            if node.id not in ("self", "cls") and node.id not in seen:
                seen.add(node.id)
                names.append(node.id)
            return
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(expr)
    return tuple(names)


def _payload_names(call: ast.Call) -> tuple[str, ...]:
    """Local names aliased into a send-like call's arguments."""
    names: list[str] = []
    seen: set[str] = set()
    for arg in [*call.args, *[kw.value for kw in call.keywords]]:
        for name in _expr_names(arg):
            if name not in seen:
                seen.add(name)
                names.append(name)
    return tuple(names)


def _mutation_root(target: ast.expr) -> str | None:
    """Root local name of a mutating assignment target (``x[k]``,
    ``x.attr``, nested chains); None when the root is not a plain local."""
    node = target
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    if isinstance(node, ast.Name) and node.id not in ("self", "cls"):
        return node.id
    return None


# ----------------------------------------------------------------------
# Project index: functions, call resolution, effect events
# ----------------------------------------------------------------------
@dataclass
class FunctionRecord:
    """One function (possibly nested / a method) in the project."""

    qname: str                  #: ``module:Qual.Path.name``
    module: Module
    node: ast.FunctionDef | ast.AsyncFunctionDef
    class_name: str | None      #: enclosing class, for ``self.`` resolution
    params: tuple[str, ...]
    is_process: bool            #: a sim process: yields or is named ``g_*``

    @property
    def short(self) -> str:
        return self.qname.split(":", 1)[1]

    @property
    def is_commit_path(self) -> bool:
        return bool(_COMMIT_PATH_RE.search(self.qname))


class ProjectIndex:
    """Call-graph index plus memoized effect summaries for one project."""

    def __init__(self, modules: list[Module]):
        self.modules = modules
        self.functions: dict[str, FunctionRecord] = {}
        self.top_level: dict[tuple[str, str], str] = {}
        self.methods: dict[tuple[str, str, str], str] = {}
        self.imports: dict[str, dict[str, str]] = {}
        self._local_events: dict[str, list[tuple]] = {}
        self._traces: dict[str, tuple] = {}
        self._mutates: dict[str, frozenset[str]] = {}
        for module in modules:
            self._index_module(module)

    @classmethod
    def for_project(cls, project: Project) -> "ProjectIndex":
        index = project.cache.get("interproc.index")
        if index is None:
            index = cls(project.modules)
            project.cache["interproc.index"] = index
        return index

    # -- construction ---------------------------------------------------
    def _index_module(self, module: Module) -> None:
        self.imports[module.name] = import_map(module.tree)

        def visit(node: ast.AST, path: tuple[str, ...],
                  cls: ast.ClassDef | None) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = path + (child.name,)
                    self._add_function(module, child, qual, cls)
                    visit(child, qual, cls)
                elif isinstance(child, ast.ClassDef):
                    visit(child, path + (child.name,), child)
                else:
                    visit(child, path, cls)

        visit(module.tree, (), None)

    def _add_function(self, module: Module,
                      node: ast.FunctionDef | ast.AsyncFunctionDef,
                      qual: tuple[str, ...], cls: ast.ClassDef | None) -> None:
        qname = f"{module.name}:{'.'.join(qual)}"
        if qname in self.functions:  # redefinition: last one wins
            qname = f"{qname}@{node.lineno}"
        args = node.args
        params = tuple(arg.arg for arg in
                       (*args.posonlyargs, *args.args, *args.kwonlyargs))
        record = FunctionRecord(
            qname=qname, module=module, node=node,
            class_name=cls.name if cls is not None else None,
            params=params,
            is_process=(is_generator_function(node)
                        or node.name.startswith("g_")))
        self.functions[qname] = record
        if len(qual) == 1:
            self.top_level.setdefault((module.name, node.name), qname)
        if cls is not None and len(qual) >= 2 and qual[-2] == cls.name:
            self.methods.setdefault((module.name, cls.name, node.name), qname)

    # -- call resolution ------------------------------------------------
    def resolve(self, record: FunctionRecord, call: ast.Call) -> str | None:
        func = call.func
        mod = record.module.name
        imports = self.imports.get(mod, {})
        if isinstance(func, ast.Name):
            qname = self.top_level.get((mod, func.id))
            if qname is not None:
                return qname
            origin = imports.get(func.id)
            if origin and "." in origin:
                omod, _, oname = origin.rpartition(".")
                return self.top_level.get((omod, oname))
            return None
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            base = func.value.id
            if base == "self" and record.class_name is not None:
                return self.methods.get((mod, record.class_name, func.attr))
            origin = imports.get(base)
            if origin is not None:
                return self.top_level.get((origin, func.attr))
        return None

    # -- local effect events --------------------------------------------
    def local_events(self, qname: str) -> list[tuple]:
        """Pre-order (≈ textual order) effect events of one function body.

        Event kinds: ``("acq", token, node)``, ``("relall", node)``,
        ``("yield", node)``, ``("send", names, node)``,
        ``("call", callee_qname, call_node, is_method_call)``,
        ``("mut", name, node)``, ``("kill", name, node, value_names)``
        where ``value_names`` are the locals the assigned value aliases.
        """
        events = self._local_events.get(qname)
        if events is not None:
            return events
        record = self.functions[qname]
        events = []
        consumed: set[int] = set()
        for node in _walk_function_body(record.node):
            if isinstance(node, ast.Yield):
                value = node.value
                if isinstance(value, ast.Call) and _is_acquire(value):
                    consumed.add(id(value))
                    events.append(("acq", _lock_token(value), node))
                else:
                    events.append(("yield", node))
            elif isinstance(node, ast.YieldFrom):
                value = node.value
                if isinstance(value, ast.Call):
                    consumed.add(id(value))
                    callee = self.resolve(record, value)
                    if callee is not None:
                        self._append_call(events, record, callee, value)
                    else:
                        # Unknown generator: assume it waits on sim events.
                        events.append(("yield", node))
                else:
                    events.append(("yield", node))
            elif isinstance(node, ast.Call) and id(node) not in consumed:
                if _is_acquire(node):
                    events.append(("acq", _lock_token(node), node))
                    continue
                if _is_release_all(node):
                    events.append(("relall", node))
                    continue
                if _is_send(node):
                    events.append(("send", _payload_names(node), node))
                func = node.func
                if (isinstance(func, ast.Attribute)
                        and func.attr in _MUTATING_METHODS
                        and isinstance(func.value, ast.Name)
                        and func.value.id not in ("self", "cls")):
                    events.append(("mut", func.value.id, node))
                callee = self.resolve(record, node)
                if callee is not None:
                    self._append_call(events, record, callee, node)
            elif isinstance(node, ast.Assign):
                value_names = _expr_names(node.value)
                for target in node.targets:
                    self._target_events(events, target, node, value_names)
            elif isinstance(node, (ast.AnnAssign, ast.For, ast.AsyncFor)):
                source = node.value if isinstance(node, ast.AnnAssign) \
                    else node.iter
                value_names = _expr_names(source) if source is not None else ()
                self._target_events(events, node.target, node, value_names)
            elif isinstance(node, ast.AugAssign):
                # ``x += ...`` on a plain name is treated as a rebind (it
                # usually is, for the immutables that dominate); on a
                # subscript/attribute it mutates the container.
                if isinstance(node.target, ast.Name):
                    events.append(("kill", node.target.id, node, ()))
                else:
                    root = _mutation_root(node.target)
                    if root is not None:
                        events.append(("mut", root, node))
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        events.append(("kill", target.id, node, ()))
                    else:
                        root = _mutation_root(target)
                        if root is not None:
                            events.append(("mut", root, node))
        self._local_events[qname] = events
        return events

    def _append_call(self, events: list, record: FunctionRecord,
                     callee: str, call: ast.Call) -> None:
        is_method = (isinstance(call.func, ast.Attribute)
                     and isinstance(call.func.value, ast.Name)
                     and call.func.value.id == "self")
        events.append(("call", callee, call, is_method))

    def _target_events(self, events: list, target: ast.expr, node: ast.AST,
                       value_names: tuple[str, ...] = ()) -> None:
        if isinstance(target, ast.Name):
            events.append(("kill", target.id, node, value_names))
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._target_events(events, element, node, value_names)
        elif isinstance(target, ast.Starred):
            self._target_events(events, target.value, node, value_names)
        else:
            root = _mutation_root(target)
            if root is not None:
                events.append(("mut", root, node))

    # -- flattened lock/yield traces (for SIM107 / SIM109) --------------
    def effect_trace(self, qname: str,
                     _visiting: frozenset[str] = frozenset()) -> tuple:
        """The function's lock/yield effects with resolved calls inlined.

        Entries: ``("acq", token, record, node)``, ``("relall",)``,
        ``("yield", record, node)``. Context-free and memoized; recursion
        returns an empty trace; capped at ``_TRACE_CAP`` entries.
        """
        cached = self._traces.get(qname)
        if cached is not None:
            return cached
        if qname in _visiting:
            return ()
        record = self.functions[qname]
        visiting = _visiting | {qname}
        trace: list[tuple] = []
        for event in self.local_events(qname):
            kind = event[0]
            if kind == "acq":
                trace.append(("acq", event[1], record, event[2]))
            elif kind == "relall":
                trace.append(("relall",))
            elif kind == "yield":
                trace.append(("yield", record, event[1]))
            elif kind == "call":
                trace.extend(self.effect_trace(event[1], visiting))
            if len(trace) >= _TRACE_CAP:
                del trace[_TRACE_CAP:]
                break
        result = tuple(trace)
        if qname not in _visiting:
            self._traces[qname] = result
        return result

    # -- parameter-mutation summaries (for SIM108) -----------------------
    def mutated_params(self, qname: str,
                       _visiting: frozenset[str] = frozenset()) -> frozenset[str]:
        """Parameter names this function mutates, directly or by passing
        them to a callee that mutates the corresponding parameter."""
        cached = self._mutates.get(qname)
        if cached is not None:
            return cached
        if qname in _visiting:
            return frozenset()
        record = self.functions[qname]
        params = set(record.params)
        visiting = _visiting | {qname}
        mutated: set[str] = set()
        for event in self.local_events(qname):
            kind = event[0]
            if kind == "mut" and event[1] in params:
                mutated.add(event[1])
            elif kind == "call":
                callee, call, is_method = event[1], event[2], event[3]
                callee_mutates = self.mutated_params(callee, visiting)
                if not callee_mutates:
                    continue
                for name in self._forwarded_mutations(
                        callee, call, is_method, callee_mutates):
                    if name in params:
                        mutated.add(name)
        result = frozenset(mutated)
        if qname not in _visiting:
            self._mutates[qname] = result
        return result

    def _forwarded_mutations(self, callee_qname: str, call: ast.Call,
                             is_method_call: bool,
                             callee_mutates: frozenset[str]
                             ) -> typing.Iterator[str]:
        """Caller-side names whose objects the callee mutates."""
        callee = self.functions[callee_qname]
        offset = 1 if (is_method_call and callee.class_name is not None
                       and callee.params and callee.params[0] == "self") else 0
        for position, arg in enumerate(call.args):
            if not isinstance(arg, ast.Name):
                continue
            index = position + offset
            if index < len(callee.params) and \
                    callee.params[index] in callee_mutates:
                yield arg.id
        for keyword in call.keywords:
            if keyword.arg and isinstance(keyword.value, ast.Name) and \
                    keyword.arg in callee_mutates:
                yield keyword.value.id


# ----------------------------------------------------------------------
# SIM107 — inconsistent lock acquisition order
# ----------------------------------------------------------------------
@register
class LockOrderRule(ProjectRule):
    code = "SIM107"
    name = "lock-order-cycle"
    description = ("Two code paths acquire the same pair of locks in "
                   "opposite orders — a potential AB/BA deadlock the lock "
                   "timeout only papers over.")

    def check_project(self, project: Project) -> typing.Iterator[Finding]:
        index = ProjectIndex.for_project(project)
        # token-a -> token-b edge when b is acquired while a is held, with
        # the first witness (root chain, location) that produced it.
        edges: dict[tuple[str, str], tuple] = {}
        for qname in sorted(index.functions):
            held: list[str] = []
            for event in index.effect_trace(qname):
                kind = event[0]
                if kind == "acq":
                    _, token, record, node = event
                    for prior in held:
                        if prior != token:
                            edges.setdefault(
                                (prior, token),
                                (qname, record.module, node))
                    if token not in held and len(held) < _SEQ_CAP:
                        held.append(token)
                elif kind == "relall":
                    held.clear()
        yield from self._cycle_findings(index, edges)

    def _cycle_findings(self, index: ProjectIndex,
                        edges: dict) -> typing.Iterator[Finding]:
        adjacency: dict[str, list[str]] = {}
        for (src, dst) in edges:
            adjacency.setdefault(src, []).append(dst)
        for neighbours in adjacency.values():
            neighbours.sort()
        reported: set[frozenset[str]] = set()
        for (src, dst) in sorted(edges):
            if (dst, src) not in edges and not self._reaches(adjacency, dst, src):
                continue
            cycle_tokens = frozenset(self._cycle_nodes(adjacency, src, dst))
            if cycle_tokens in reported:
                continue
            reported.add(cycle_tokens)
            root_a, module_a, node_a = edges[(src, dst)]
            back = (dst, src) if (dst, src) in edges else \
                min(edge for edge in edges
                    if edge[0] in cycle_tokens and edge[1] in cycle_tokens
                    and edge != (src, dst))
            root_b, module_b, node_b = edges[back]
            message = (
                f"lock acquisition order cycle: '{src}' then '{dst}' "
                f"(via {index.functions[root_a].short}, "
                f"{module_a.path}:{node_a.lineno}) but '{back[0]}' then "
                f"'{back[1]}' (via {index.functions[root_b].short}, "
                f"{module_b.path}:{node_b.lineno}) — two transactions "
                f"interleaving these paths deadlock until the lock timeout")
            yield self.finding(module_a, node_a, message)

    @staticmethod
    def _reaches(adjacency: dict, start: str, goal: str) -> bool:
        stack, seen = [start], {start}
        while stack:
            node = stack.pop()
            if node == goal:
                return True
            for neighbour in adjacency.get(node, ()):
                if neighbour not in seen:
                    seen.add(neighbour)
                    stack.append(neighbour)
        return False

    @staticmethod
    def _cycle_nodes(adjacency: dict, src: str, dst: str) -> list[str]:
        """Nodes on one cycle through edge src->dst (dst ... -> src)."""
        # BFS from dst back to src, tracking parents.
        parents: dict[str, str | None] = {dst: None}
        queue = [dst]
        while queue:
            node = queue.pop(0)
            if node == src:
                break
            for neighbour in adjacency.get(node, ()):
                if neighbour not in parents:
                    parents[neighbour] = node
                    queue.append(neighbour)
        nodes = [src]
        current = parents.get(src)
        while current is not None:
            nodes.append(current)
            current = parents[current]
        return nodes


# ----------------------------------------------------------------------
# SIM108 — mutation after send
# ----------------------------------------------------------------------
@register
class MutateAfterSendRule(ProjectRule):
    code = "SIM108"
    name = "mutate-after-send"
    description = ("An object aliased into a send()/append_redo()/reply() "
                   "payload is mutated after the call — the in-flight "
                   "message (and what a replica replays) silently changes.")

    def check_project(self, project: Project) -> typing.Iterator[Finding]:
        index = ProjectIndex.for_project(project)
        for qname in sorted(index.functions):
            record = index.functions[qname]
            aliased: dict[str, int] = {}
            alias_map: dict[str, tuple[str, ...]] = {}
            for event in index.local_events(qname):
                kind = event[0]
                if kind == "send":
                    # Taint the payload names plus everything they alias
                    # transitively (``payload = ("redo", rows)`` taints
                    # ``rows`` when ``payload`` ships).
                    stack = list(event[1])
                    tainted: set[str] = set()
                    while stack:
                        name = stack.pop()
                        if name in tainted:
                            continue
                        tainted.add(name)
                        stack.extend(alias_map.get(name, ()))
                    for name in sorted(tainted):
                        aliased.setdefault(name, event[2].lineno)
                elif kind == "kill":
                    aliased.pop(event[1], None)
                    alias_map[event[1]] = event[3]
                elif kind == "mut" and event[1] in aliased:
                    yield self.finding(
                        record.module, event[2],
                        f"'{event[1]}' was aliased into a send() payload at "
                        f"line {aliased[event[1]]} and is mutated here — "
                        f"the in-flight copy changes too; send a copy or "
                        f"mutate before sending")
                elif kind == "call":
                    callee, call, is_method = event[1], event[2], event[3]
                    mutates = index.mutated_params(callee)
                    if not mutates:
                        continue
                    for name in index._forwarded_mutations(
                            callee, call, is_method, mutates):
                        if name in aliased:
                            yield self.finding(
                                record.module, call,
                                f"'{name}' was aliased into a send() payload "
                                f"at line {aliased[name]} and "
                                f"'{index.functions[callee].short}' mutates "
                                f"it — the in-flight copy changes too")
                            break


# ----------------------------------------------------------------------
# SIM109 — yield while holding a lock outside the commit path
# ----------------------------------------------------------------------
@register
class YieldWhileLockedRule(ProjectRule):
    code = "SIM109"
    name = "yield-while-locked"
    description = ("A sim process yields an event (timeout, RPC, ...) while "
                   "holding a LockTable lock outside the commit path — the "
                   "row stays locked across an arbitrary simulated wait.")

    def check_project(self, project: Project) -> typing.Iterator[Finding]:
        index = ProjectIndex.for_project(project)
        seen: set[tuple[str, int]] = set()
        for qname in sorted(index.functions):
            root = index.functions[qname]
            if root.is_commit_path:
                continue
            held: list[tuple[str, FunctionRecord, ast.AST]] = []
            for event in index.effect_trace(qname):
                kind = event[0]
                if kind == "acq":
                    _, token, record, node = event
                    if all(token != h for h, _r, _n in held) and \
                            len(held) < _SEQ_CAP:
                        held.append((token, record, node))
                elif kind == "relall":
                    held.clear()
                elif kind == "yield" and held:
                    _, record, node = event
                    if record.is_commit_path:
                        continue
                    key = (record.module.path, node.lineno)
                    if key in seen:
                        continue
                    seen.add(key)
                    tokens = ", ".join(f"'{token}'" for token, _r, _n in held)
                    acquired = held[0]
                    yield self.finding(
                        record.module, node,
                        f"yields a sim event while holding lock(s) {tokens} "
                        f"(acquired at "
                        f"{acquired[1].module.path}:{acquired[2].lineno}, "
                        f"reached via {root.short}) outside the commit path "
                        f"— release before waiting or rename the path if it "
                        f"really is commit protocol")


# ----------------------------------------------------------------------
# SIM110 — shared mutable module-level state
# ----------------------------------------------------------------------
@register
class SharedMutableStateRule(ProjectRule):
    code = "SIM110"
    name = "shared-mutable-module-state"
    description = ("Mutable module-level state reachable from more than one "
                   "sim process and mutated without a lock — cross-process "
                   "shared state with invisible interleaving.")

    def check_project(self, project: Project) -> typing.Iterator[Finding]:
        index = ProjectIndex.for_project(project)
        bindings = self._module_level_mutables(project)
        if not bindings:
            return
        # Which functions reference / mutate each binding.
        references: dict[tuple[str, str], set[str]] = {}
        mutators: dict[tuple[str, str], set[str]] = {}
        for qname in sorted(index.functions):
            record = index.functions[qname]
            for binding in self._bindings_touched(index, record, bindings):
                key, mutated = binding
                references.setdefault(key, set()).add(qname)
                if mutated:
                    mutators.setdefault(key, set()).add(qname)
        # Sim processes reaching each referencing function.
        reach_cache: dict[str, frozenset[str]] = {}
        for key in sorted(bindings):
            touched = references.get(key, set())
            if not touched or key not in mutators:
                continue
            processes = set()
            for qname in sorted(index.functions):
                record = index.functions[qname]
                if not record.is_process:
                    continue
                if touched & self._reachable(index, qname, reach_cache):
                    processes.add(qname)
            if len(processes) < 2:
                continue
            module_name, var = key
            module, node = bindings[key]
            names = ", ".join(sorted(index.functions[q].short
                                     for q in sorted(processes))[:4])
            mutator_names = ", ".join(sorted(index.functions[q].short
                                             for q in sorted(mutators[key]))[:3])
            yield self.finding(
                module, node,
                f"module-level mutable '{var}' is reachable from "
                f"{len(processes)} sim processes ({names}) and mutated "
                f"({mutator_names}) without a lock — interleaving at yields "
                f"makes its state schedule-dependent; pass it explicitly or "
                f"make it per-process")

    @staticmethod
    def _module_level_mutables(project: Project) -> dict:
        bindings: dict[tuple[str, str], tuple[Module, ast.AST]] = {}
        for module in project.modules:
            for stmt in module.tree.body:
                targets: list[ast.expr] = []
                value = None
                if isinstance(stmt, ast.Assign):
                    targets, value = stmt.targets, stmt.value
                elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                    targets, value = [stmt.target], stmt.value
                if value is None or not _is_mutable_value(value):
                    continue
                for target in targets:
                    if isinstance(target, ast.Name):
                        bindings[(module.name, target.id)] = (module, stmt)
        return bindings

    def _bindings_touched(self, index: ProjectIndex, record: FunctionRecord,
                          bindings: dict) -> typing.Iterator[tuple]:
        """(key, mutated) for each module-level binding this function
        touches, import-aware, skipping locally shadowed names."""
        imports = index.imports.get(record.module.name, {})
        local_names: dict[str, tuple[str, str]] = {}
        for key in bindings:
            module_name, var = key
            if module_name == record.module.name:
                local_names.setdefault(var, key)
        for local, origin in imports.items():
            if "." in origin:
                omod, _, oname = origin.rpartition(".")
                if (omod, oname) in bindings:
                    local_names.setdefault(local, (omod, oname))
        if not local_names:
            return
        shadowed = set(record.params)
        declared_global: set[str] = set()
        mutated: set[str] = set()
        referenced: set[str] = set()
        for node in _walk_function_body(record.node):
            if isinstance(node, ast.Global):
                declared_global.update(node.names)
        for event in index.local_events(record.qname):
            kind = event[0]
            if kind == "kill" and event[1] not in declared_global:
                shadowed.add(event[1])
            elif kind == "kill":
                mutated.add(event[1])  # global rebind counts as mutation
            elif kind == "mut":
                mutated.add(event[1])
        for node in _walk_function_body(record.node):
            if isinstance(node, ast.Name) and node.id in local_names:
                referenced.add(node.id)
        for name in sorted(referenced):
            if name in shadowed and name not in declared_global:
                continue
            yield local_names[name], name in mutated

    @staticmethod
    def _reachable(index: ProjectIndex, qname: str,
                   cache: dict) -> frozenset[str]:
        cached = cache.get(qname)
        if cached is not None:
            return cached
        seen = {qname}
        stack = [qname]
        while stack:
            current = stack.pop()
            for event in index.local_events(current):
                if event[0] == "call" and event[1] not in seen:
                    seen.add(event[1])
                    stack.append(event[1])
        result = frozenset(seen)
        cache[qname] = result
        return result


def _is_mutable_value(value: ast.expr) -> bool:
    if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                          ast.SetComp, ast.DictComp)):
        return True
    if isinstance(value, ast.Call):
        name = None
        if isinstance(value.func, ast.Name):
            name = value.func.id
        elif isinstance(value.func, ast.Attribute):
            name = value.func.attr
        return name in _MUTABLE_FACTORIES
    return False
