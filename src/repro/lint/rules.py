"""The repo-specific invariant rules.

Each rule statically encodes one of ROADMAP.md's standing invariants
(plus two generic safety rules), so contract violations are caught at
diff time instead of by the runtime suites after a violation ships:

===================== ========================================================
rule id               invariant
===================== ========================================================
clock-discipline      no wall-clock reads in ``repro.serve`` outside the
                      injectable clock seams (determinism ladder / chaos
                      ``clock_skew`` accounting / virtual-clock replay)
rng-discipline        no global-state RNG anywhere in ``repro``: all
                      randomness flows through seeded ``default_rng`` /
                      ``Sampler`` streams (sampling invariance)
set-iteration-order   no iterating bare sets in the serve scheduling/routing
                      files where order is token-visible
finish-release-pairing a function in ``engine.py``/``fleet.py`` that emits a
                      ``FINISH_*`` reason must also release storage
                      (resource-hygiene invariant)
window-alignment      no literal ``block_tokens=``/``prefill_chunk_tokens=``
                      outside the validated config path (MANT V-window
                      alignment constraints)
frozen-config         dataclasses in ``serve/config.py`` are frozen and
                      validate in ``__post_init__``
export-consistency    ``__all__`` matches the module's actual bindings (and,
                      in ``__init__.py``, its re-exports)
mutable-default       no mutable default arguments
bare-except           no bare ``except:`` handlers
===================== ========================================================
"""

from __future__ import annotations

import ast
import re

from repro.lint.core import ERROR, WARN, Rule, register

__all__ = [
    "BareExcept",
    "ClockDiscipline",
    "ExportConsistency",
    "FinishReleasePairing",
    "FrozenConfig",
    "MutableDefault",
    "RngDiscipline",
    "SetIterationOrder",
    "WindowAlignment",
]


def _dotted(node) -> str | None:
    """``a.b.c`` for a pure Name/Attribute chain, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _own_nodes(func):
    """Walk a function's body without descending into nested defs."""
    stack = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


_FUNC_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


# ----------------------------------------------------------------------
# clock-discipline
# ----------------------------------------------------------------------
_CLOCK_CALLS = {
    "time.time", "time.monotonic", "time.perf_counter",
    "time.time_ns", "time.monotonic_ns", "time.perf_counter_ns",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "date.today", "datetime.date.today",
}


@register
class ClockDiscipline(Rule):
    id = "clock-discipline"
    severity = ERROR
    invariant = ("repro.serve reads time only through the injectable clock "
                 "seams (engine clock=, TickTracer clock=, LoadHarness clock "
                 "mode); a direct wall-clock call bypasses chaos clock_skew "
                 "accounting and breaks virtual-clock replay determinism")

    def check(self, ctx):
        if not ctx.in_package("serve"):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                name = _dotted(node.func)
                if name in _CLOCK_CALLS:
                    yield self.finding(
                        ctx, node,
                        f"direct wall-clock read {name}() in repro.serve — "
                        "take the time from the injectable clock seam "
                        "(engine/tracer/harness clock) so fault clock_skew "
                        "and virtual-clock replay stay deterministic; "
                        "passing the function as an injectable default is "
                        "fine, calling it here is not")


# ----------------------------------------------------------------------
# rng-discipline
# ----------------------------------------------------------------------
_NP_RANDOM_OK = {
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
}
_PY_RANDOM_OK = {"Random"}


@register
class RngDiscipline(Rule):
    id = "rng-discipline"
    severity = ERROR
    invariant = ("all randomness flows through seeded np.random.default_rng "
                 "/ Generator / Sampler streams; global-state random.* and "
                 "np.random.* calls break sampling invariance (per-request "
                 "streams derived from (seed, sample_index))")

    def _flag_call(self, ctx, node, name):
        return self.finding(
            ctx, node,
            f"global-state RNG call {name}() — draw from a seeded "
            "np.random.default_rng(seed) / Sampler stream instead, so "
            "results are invariant to batch composition and replayable")

    def check(self, ctx):
        if not ctx.module_path.startswith("repro/"):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                name = _dotted(node.func)
                if name is None:
                    continue
                parts = name.split(".")
                if (len(parts) == 2 and parts[0] == "random"
                        and parts[1] not in _PY_RANDOM_OK):
                    yield self._flag_call(ctx, node, name)
                elif (len(parts) == 3 and parts[0] in ("np", "numpy")
                        and parts[1] == "random"):
                    if parts[2] not in _NP_RANDOM_OK:
                        yield self._flag_call(ctx, node, name)
                    elif (parts[2] == "default_rng"
                            and not node.args and not node.keywords):
                        yield self.finding(
                            ctx, node,
                            f"{name}() without a seed draws OS entropy — "
                            "every Generator must be constructed from an "
                            "explicit seed for replay determinism")
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module == "random":
                    bad = [a.name for a in node.names
                           if a.name not in _PY_RANDOM_OK and a.name != "*"]
                    if bad:
                        yield self.finding(
                            ctx, node,
                            f"importing global-state RNG helpers from "
                            f"`random` ({', '.join(bad)}) — use a seeded "
                            "np.random.default_rng / random.Random instance")
                elif node.module == "numpy.random":
                    bad = [a.name for a in node.names
                           if a.name not in _NP_RANDOM_OK and a.name != "*"]
                    if bad:
                        yield self.finding(
                            ctx, node,
                            f"importing global-state helpers from "
                            f"numpy.random ({', '.join(bad)}) — only seeded "
                            "Generator construction is allowed")


# ----------------------------------------------------------------------
# set-iteration-order
# ----------------------------------------------------------------------
_ORDER_SENSITIVE_FILES = {
    "repro/serve/engine.py", "repro/serve/scheduler.py",
    "repro/serve/fleet.py", "repro/serve/policy.py",
    "repro/serve/paging.py",
}


@register
class SetIterationOrder(Rule):
    id = "set-iteration-order"
    severity = ERROR
    invariant = ("serve scheduling/routing paths never iterate bare sets: "
                 "set order varies across processes (hash randomization), "
                 "and any order-dependent scheduling decision becomes "
                 "token-visible — iterate lists or sorted(...) views")

    def _is_set_expr(self, expr) -> bool:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.Call):
            return _dotted(expr.func) in ("set", "frozenset")
        return False

    def check(self, ctx):
        if ctx.module_path not in _ORDER_SENSITIVE_FILES:
            return
        for node in ast.walk(ctx.tree):
            iters = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                if self._is_set_expr(it):
                    yield self.finding(
                        ctx, it,
                        "iterating a set in a scheduling/routing path — "
                        "set order is not stable across runs; iterate a "
                        "list or sorted(...) so any order-dependent "
                        "decision stays deterministic")


# ----------------------------------------------------------------------
# finish-release-pairing
# ----------------------------------------------------------------------
_FINISH_NAME = re.compile(r"^FINISH_[A-Z_]+$")
_RELEASE_CALLS = {"_release_storage", "_retire"}
_STORAGE_FILES = {"repro/serve/engine.py", "repro/serve/fleet.py"}


@register
class FinishReleasePairing(Rule):
    id = "finish-release-pairing"
    severity = ERROR
    invariant = ("in engine.py/fleet.py, a function that emits a FINISH_* "
                 "reason (finish_reason assignment or finish TokenEvent) "
                 "must also call _release_storage()/_retire(): every finish "
                 "path returns pool storage to baseline (resource-"
                 "hygiene invariant); deferred-release paths carry an "
                 "explicit allow annotation naming who releases instead")

    def check(self, ctx):
        if ctx.module_path not in _STORAGE_FILES:
            return
        for func in ast.walk(ctx.tree):
            if not isinstance(func, _FUNC_DEFS):
                continue
            emissions: list = []
            releases = False
            for node in _own_nodes(func):
                if isinstance(node, ast.Assign):
                    if (isinstance(node.value, ast.Name)
                            and _FINISH_NAME.match(node.value.id)):
                        emissions.append(node)
                elif isinstance(node, ast.Call):
                    name = _dotted(node.func)
                    if (name is not None
                            and name.rsplit(".", 1)[-1] in _RELEASE_CALLS):
                        releases = True
                    for arg in [*node.args,
                                *(kw.value for kw in node.keywords)]:
                        if (isinstance(arg, ast.Name)
                                and _FINISH_NAME.match(arg.id)):
                            emissions.append(node)
            if emissions and not releases:
                first = min(emissions, key=lambda n: n.lineno)
                yield self.finding(
                    ctx, first,
                    f"{func.name}() emits a FINISH_* reason but never calls "
                    "_release_storage()/_retire() — every finish path must "
                    "release the sequence's storage; if release is "
                    "deliberately deferred (e.g. to the tick's retire "
                    "phase), annotate the emission with an allow naming "
                    "the releasing path")


# ----------------------------------------------------------------------
# window-alignment
# ----------------------------------------------------------------------
_ALIGNED_KWARGS = {"block_tokens", "prefill_chunk_tokens"}


@register
class WindowAlignment(Rule):
    id = "window-alignment"
    severity = WARN
    invariant = ("block_tokens / prefill_chunk_tokens must be multiples of "
                 "the MANT V window (validate_block_compat, with chunks "
                 "whole pages by ServeConfig); literal values "
                 "outside the validated ServeConfig path dodge the "
                 "cross-field alignment checks")

    def check(self, ctx):
        if not ctx.module_path.startswith("repro/"):
            return
        if ctx.is_module("serve", "config.py"):
            return            # the validated knob surface itself
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            for kw in node.keywords:
                if (kw.arg in _ALIGNED_KWARGS
                        and isinstance(kw.value, ast.Constant)
                        and isinstance(kw.value.value, int)
                        and not isinstance(kw.value.value, bool)):
                    yield self.finding(
                        ctx, kw.value,
                        f"literal {kw.arg}={kw.value.value} outside the "
                        "validated config path — thread the value through "
                        "ServeConfig so validate_block_compat can check "
                        "MANT V-window / page alignment")


# ----------------------------------------------------------------------
# frozen-config
# ----------------------------------------------------------------------
@register
class FrozenConfig(Rule):
    id = "frozen-config"
    severity = ERROR
    invariant = ("every dataclass in serve/config.py is "
                 "@dataclass(frozen=True) with a __post_init__ validator: "
                 "configs are immutable knob surfaces that fail at "
                 "construction, never mid-tick")

    def _dataclass_decorator(self, cls):
        for dec in cls.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            name = _dotted(target)
            if name is not None and name.rsplit(".", 1)[-1] == "dataclass":
                return dec
        return None

    def check(self, ctx):
        if not ctx.is_module("serve", "config.py"):
            return
        for cls in ctx.tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            dec = self._dataclass_decorator(cls)
            if dec is None:
                continue
            frozen = (isinstance(dec, ast.Call) and any(
                kw.arg == "frozen" and isinstance(kw.value, ast.Constant)
                and kw.value.value is True for kw in dec.keywords))
            if not frozen:
                yield self.finding(
                    ctx, cls,
                    f"dataclass {cls.name} must be @dataclass(frozen=True) "
                    "— serve configs are immutable; mutation after "
                    "construction skips cross-field validation")
            if not any(isinstance(n, _FUNC_DEFS) and n.name == "__post_init__"
                       for n in cls.body):
                yield self.finding(
                    ctx, cls,
                    f"dataclass {cls.name} has no __post_init__ — serve "
                    "configs validate every field at construction so an "
                    "invalid knob can never reach the engine")


# ----------------------------------------------------------------------
# export-consistency
# ----------------------------------------------------------------------
@register
class ExportConsistency(Rule):
    id = "export-consistency"
    severity = ERROR
    invariant = ("__all__ and the module's real bindings agree: every "
                 "listed name is bound, and (in __init__.py) every "
                 "top-level re-export is listed — the public API surface "
                 "cannot drift silently")

    def _literal_all(self, tree):
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = [t.id for t in node.targets
                           if isinstance(t, ast.Name)]
                if "__all__" in targets:
                    if isinstance(node.value, (ast.List, ast.Tuple)) and all(
                            isinstance(e, ast.Constant)
                            and isinstance(e.value, str)
                            for e in node.value.elts):
                        return node, [e.value for e in node.value.elts]
                    return node, None     # dynamic __all__: skip the file
        return None, None

    def _bound_names(self, tree):
        bound: set[str] = set()
        for node in tree.body:
            if isinstance(node, ast.Import):
                for a in node.names:
                    bound.add(a.asname or a.name.split(".")[0])
            elif isinstance(node, ast.ImportFrom):
                for a in node.names:
                    if a.name != "*":
                        bound.add(a.asname or a.name)
            elif isinstance(node, _FUNC_DEFS + (ast.ClassDef,)):
                bound.add(node.name)
            elif isinstance(node, ast.Assign):
                for t in node.targets:
                    if isinstance(t, ast.Name):
                        bound.add(t.id)
                    elif isinstance(t, (ast.Tuple, ast.List)):
                        bound.update(e.id for e in t.elts
                                     if isinstance(e, ast.Name))
            elif isinstance(node, ast.AnnAssign):
                if isinstance(node.target, ast.Name):
                    bound.add(node.target.id)
        return bound

    def check(self, ctx):
        node, names = self._literal_all(ctx.tree)
        if node is None or names is None:
            return
        bound = self._bound_names(ctx.tree)
        seen: set[str] = set()
        for name in names:
            if name in seen:
                yield self.finding(
                    ctx, node, f"duplicate __all__ entry {name!r}")
            seen.add(name)
            if name not in bound:
                yield self.finding(
                    ctx, node,
                    f"__all__ lists {name!r} but the module neither "
                    "defines nor imports it — the export is a lie")
        if ctx.filename != "__init__.py":
            return
        listed = set(names)
        for stmt in ctx.tree.body:
            if (not isinstance(stmt, ast.ImportFrom)
                    or stmt.module == "__future__"):
                continue
            for a in stmt.names:
                exported = a.asname or a.name
                if (a.name != "*" and not exported.startswith("_")
                        and exported not in listed):
                    yield self.finding(
                        ctx, stmt,
                        f"{exported!r} is imported at package top level "
                        "but missing from __all__ — add it or rename it "
                        "with a leading underscore")


# ----------------------------------------------------------------------
# generic safety rules
# ----------------------------------------------------------------------
_MUTABLE_CTORS = {"list", "dict", "set", "bytearray", "deque",
                  "defaultdict", "Counter", "OrderedDict"}


@register
class MutableDefault(Rule):
    id = "mutable-default"
    severity = ERROR
    invariant = ("no mutable default arguments: the default is evaluated "
                 "once and shared across calls, leaking state between "
                 "requests")

    def _is_mutable(self, expr) -> bool:
        if isinstance(expr, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        if isinstance(expr, ast.Call):
            name = _dotted(expr.func)
            return (name is not None
                    and name.rsplit(".", 1)[-1] in _MUTABLE_CTORS)
        return False

    def check(self, ctx):
        for func in ast.walk(ctx.tree):
            if not isinstance(func, _FUNC_DEFS + (ast.Lambda,)):
                continue
            defaults = [*func.args.defaults,
                        *(d for d in func.args.kw_defaults if d is not None)]
            for default in defaults:
                if self._is_mutable(default):
                    label = getattr(func, "name", "<lambda>")
                    yield self.finding(
                        ctx, default,
                        f"mutable default argument in {label}() is "
                        "evaluated once and shared across calls — default "
                        "to None and construct inside the function")


@register
class BareExcept(Rule):
    id = "bare-except"
    severity = WARN
    invariant = ("no bare `except:` — it swallows SystemExit and "
                 "KeyboardInterrupt; catch Exception or narrower")

    def check(self, ctx):
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield self.finding(
                    ctx, node,
                    "bare `except:` also catches SystemExit/"
                    "KeyboardInterrupt — catch Exception (or narrower)")
