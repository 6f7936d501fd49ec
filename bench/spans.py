"""Spans recorded around calls into yamabe's layers, from outside the package.

``traced(log)`` installs wrappers at the names each caller looks up (module
globals such as ``families.lambert_w``, the ``Profile.value/d1/d2`` class
attributes, and the closures that ``expressions.compile_callable`` and
``geodesics.geodesic_rhs`` return) and puts every original back on exit.
Each wrapped call appends one span: name, start, end and parent. Spans stay
in memory in flat arrays; self time is derived from them at the end.

Closures compiled before ``traced`` is entered are not wrapped, so a traced
run builds its inputs inside the ``with`` block.
"""

from __future__ import annotations

import inspect
import json
import time
from array import array
from contextlib import contextmanager

import numpy as np

from yamabe import (expressions, families, geodesics, numerics, profiles,
                    soliton, specio)


class SpanLog:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.grid_points = 0    # sum of grid_size over traced certify calls

    def __len__(self) -> int:
        return len(self.end)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """fn, recording one span per call."""
        nid = self.name_id(name)
        name_append = self.name.append
        parent_append = self.parent.append
        start_append = self.start.append
        end_append = self.end.append
        end = self.end
        stack = self._stack
        clock = time.perf_counter_ns

        def traced_call(*args, **kwargs):
            idx = len(end)
            name_append(nid)
            parent_append(stack[-1])
            end_append(0)
            stack.append(idx)
            start_append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        traced_call.__wrapped__ = fn
        for attr in ("terminal", "direction"):   # solve_ivp event flags
            if hasattr(fn, attr):
                setattr(traced_call, attr, getattr(fn, attr))
        return traced_call

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self and inclusive time in ms, and the
        calls with no child of a given name (see ``childless``)."""
        name = np.frombuffer(self.name, dtype=np.uint16).astype(np.intp)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.int64)
               - np.frombuffer(self.start, dtype=np.int64))
        nested = parent >= 0
        child_ns = np.zeros(len(dur), dtype=np.int64)
        np.add.at(child_ns, parent[nested], dur[nested])
        size = len(self.names)
        calls = np.bincount(name, minlength=size)
        self_ns = np.bincount(name, weights=dur - child_ns, minlength=size)
        incl_ns = np.bincount(name, weights=dur, minlength=size)
        return {n: {"calls": int(calls[i]), "self_ms": self_ns[i] / 1e6,
                    "incl_ms": incl_ns[i] / 1e6}
                for i, n in enumerate(self.names)}

    def childless(self, name: str, child: str) -> int:
        """Spans called ``name`` that have no direct child called ``child``."""
        if name not in self._ids:
            return 0
        names = np.frombuffer(self.name, dtype=np.uint16)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        mine = names == self._ids[name]
        if child in self._ids:
            with_child = np.zeros(len(names), dtype=bool)
            is_child = (names == self._ids[child]) & (parent >= 0)
            with_child[parent[is_child]] = True
            mine &= ~with_child
        return int(mine.sum())

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(json.dumps(self.names)),
                 name=np.frombuffer(self.name, dtype=np.uint16),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start_ns=np.frombuffer(self.start, dtype=np.int64),
                 end_ns=np.frombuffer(self.end, dtype=np.int64))


def _patch_targets(log: SpanLog) -> list[tuple[object, str, object]]:
    """(owner, attribute, replacement) for every layer boundary."""
    wrap = log.wrap
    targets = []

    compile_callable = expressions.compile_callable

    def compile_traced(node):
        return wrap("expressions.eval", compile_callable(node))
    targets.append((expressions, "compile_callable", compile_traced))

    for attr in ("value", "d1", "d2", "__call__"):
        targets.append((profiles.Profile, attr,
                        wrap("profiles.jet", profiles.Profile.__dict__[attr])))

    for attr in ("point_eval", "reduced_residuals", "full_tensor_residual",
                 "classify"):
        targets.append((soliton, attr,
                        wrap(f"soliton.{attr}", getattr(soliton, attr))))

    certify = soliton.certify
    certify_sig = inspect.signature(certify)
    certify_traced = wrap("soliton.certify", certify)

    def certify_counted(*args, **kwargs):
        bound = certify_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        log.grid_points += bound.arguments["grid_size"]
        return certify_traced(*args, **kwargs)
    targets.append((soliton, "certify", certify_counted))
    targets.append((families, "certify", certify_counted))

    lambert_traced = wrap("lambertw.lambert_w", families.lambert_w)
    targets.append((families, "lambert_w", lambert_traced))
    targets.append((expressions, "lambert_w", lambert_traced))

    for owner, attr in ((numerics, "adaptive_simpson"),
                        (families, "invert_monotone")):
        targets.append((owner, attr,
                        wrap(f"numerics.{attr}", getattr(owner, attr))))
    antiderivative = families.CachedAntiderivative
    traced_class = type("CachedAntiderivative", (antiderivative,), {
        "__call__": wrap("numerics.antiderivative", antiderivative.__call__)})
    targets.append((families, "CachedAntiderivative", traced_class))

    for attr in ("family_thm15", "phase_portrait"):
        targets.append((families, attr,
                        wrap(f"families.{attr}", getattr(families, attr))))
    targets.append((specio, "load_document",
                    wrap("specio.load_document", specio.load_document)))

    geodesic_rhs = geodesics.geodesic_rhs

    def rhs_traced(*args, **kwargs):
        return wrap("geodesics.rhs", geodesic_rhs(*args, **kwargs))
    targets.append((geodesics, "geodesic_rhs", rhs_traced))

    # solve_ivp: the solver's self time excludes the RHS and event calls,
    # so both are spans. geodesics' RHS is already wrapped by rhs_traced.
    for module, rhs_name, event_name in (
            (geodesics, None, "geodesics.event"),
            (families, "families.ode_rhs", "families.ode_event")):
        solver = wrap("scipy.solve_ivp", module.solve_ivp)

        def solve_traced(fun, t_span, y0, *args, events=None,
                         _solver=solver, _rhs=rhs_name, _event=event_name,
                         **kwargs):
            if _rhs is not None:
                fun = wrap(_rhs, fun)
            if callable(events):
                events = wrap(_event, events)
            elif events is not None:
                events = [wrap(_event, ev) for ev in events]
            return _solver(fun, t_span, y0, *args, events=events, **kwargs)
        targets.append((module, "solve_ivp", solve_traced))
    return targets


@contextmanager
def traced(log: SpanLog):
    """Install the wrappers for the duration of the block; restore every
    original attribute afterwards, also when the block raises."""
    saved = []
    try:
        for owner, attr, replacement in _patch_targets(log):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, replacement)
        yield log
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
    leftover = [f"{getattr(owner, '__name__', owner)}.{attr}"
                for owner, attr, original in saved
                if owner.__dict__[attr] is not original]
    if leftover:
        raise RuntimeError(f"wrappers left installed: {leftover}")
