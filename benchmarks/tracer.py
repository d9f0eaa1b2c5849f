"""Span tracing of calls into the package's layers, from outside the package.

Each layer is one module of `prymrep`.  `Tracer.install` wraps every public
function the module defines and the methods of its public classes, and
rebinds the wrapper at every binding site: the defining module, every other
`prymrep` module that imported the name (`ringlinalg` binds `divide_exact`,
`wordlang` binds `matrix_of`, `cli` binds `parse` as `parse_word`, ...), and
the class itself for methods.  Calls inside a module go through its globals,
so they are seen too.

Left unwrapped: functions behind `functools.lru_cache` (euler_phi,
cyclotomic_poly, _power_table: table lookups once warm), private helpers,
whose time counts toward the public function that called them, and the
constant-time accessors in SKIP_METHODS, whose wrapper would cost more than
they do.

Every wrapped call appends one span (function id, parent span, case id,
start, end) to in-memory arrays; `Tracer.write` saves them at the end, and
`Tracer.metrics` derives the per-layer metrics.  A span's self time is its
duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from enum import Enum
from time import perf_counter
from types import FunctionType

LAYERS = ("cli", "wordlang", "decompose", "generators", "predicates",
          "foxcover", "ringlinalg", "cyclotomic")

SKIP_METHODS = frozenset({
    "__repr__", "__str__", "__hash__", "__getitem__", "__len__", "__bool__",
    "is_zero", "is_one", "is_integer", "is_square", "column", "literal",
})


def unit(metric):
    """The unit of a per-layer metric, read from its name."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_frac"):
        return "fraction"
    if metric.endswith("_mean"):
        return "factors"
    return "count"


def _own_functions(namespace, filename):
    """Public plain functions in `namespace` whose code lives in `filename`."""
    for name, obj in list(namespace.items()):
        if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
            continue
        raw = obj.__func__ if isinstance(obj, (classmethod, staticmethod)) else obj
        if isinstance(raw, FunctionType) and raw.__code__.co_filename == filename:
            yield name, obj, raw


class Tracer:
    """In-memory spans of the calls into the layers, and the counters that
    observers record at the layer boundaries."""

    def __init__(self):
        self.names = []        # function id -> "layer.qualname"
        self.originals = []    # function id -> the unwrapped function
        self.fid = array("i")
        self.parent = array("i")
        self.case = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.stack = [-1]
        self.case_id = -1
        self.counters = {}
        self._restore = []
        self._matrix_keys = set()

    # -- installation -----------------------------------------------------

    def _wrap(self, fn, name, observe=None):
        fid = len(self.names)
        self.names.append(name)
        self.originals.append(fn)
        fids, parents, cases = self.fid.append, self.parent.append, self.case.append
        t0, t1, stack = self.t0, self.t1, self.stack
        t0_append, t1_append = t0.append, t1.append
        push, pop = stack.append, stack.pop
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(t0)
            fids(fid)
            parents(stack[-1])
            cases(tracer.case_id)
            t0_append(0.0)
            t1_append(0.0)
            push(idx)
            t0[idx] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1[idx] = perf_counter()
                pop()
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every layer and rebind at every binding site in `prymrep`."""
        observers = self._observers()
        replaced = {}  # id(original function object) -> wrapped object
        for layer in LAYERS:
            mod = importlib.import_module(f"prymrep.{layer}")
            for name, obj, raw in _own_functions(vars(mod), mod.__file__):
                if name.startswith("__"):
                    continue
                key = f"{layer}.{name}"
                replaced[id(obj)] = (obj, self._wrap(raw, key, observers.get(key)))
            for cname, cls in list(vars(mod).items()):
                if (not isinstance(cls, type) or cls.__module__ != mod.__name__
                        or cname.startswith("_") or issubclass(cls, (Enum, BaseException))):
                    continue
                for attr, obj, raw in _own_functions(vars(cls), mod.__file__):
                    if attr in SKIP_METHODS:
                        continue
                    key = f"{layer}.{cname}.{attr}"
                    w = self._wrap(raw, key, observers.get(key))
                    if isinstance(obj, classmethod):
                        w = classmethod(w)
                    elif isinstance(obj, staticmethod):
                        w = staticmethod(w)
                    self._set(cls, attr, w)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "prymrep" or modname.startswith("prymrep.")):
                continue
            for name, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, name, hit[1])

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- derived counters recorded at the layer boundary -------------------

    def _count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    def _caller_layer(self):
        top = self.stack[-1]
        return self.names[self.fid[top]].split(".", 1)[0] if top >= 0 else "bench"

    def _observers(self):
        from prymrep.ringlinalg import RingMatrix

        def matrix_of(args, result):
            spec, d, g = args
            key = (spec, d, g)
            self._count("matrix_of.repeat", key in self._matrix_keys)
            self._matrix_keys.add(key)

        def evaluate(args, result):
            factors = args[0].factors
            self._count("evaluate.factors", len(factors))
            self._count("evaluate.neg", sum(1 for _, e in factors if e < 0))

        def decomposed(args, result):
            if self._caller_layer() != "decompose":
                self._count("decompose.words")
                self._count("decompose.letters", len(result))

        def is_member(args, result):
            self._count("is_member.negative", not result)

        def eta_route(args, result):
            self._count("image_letters", sum(len(w) for w in args[0].images))

        def matmul(args, result):
            self._count("matmul", isinstance(args[1], RingMatrix))

        return {
            "generators.matrix_of": matrix_of,
            "wordlang.evaluate": evaluate,
            "decompose.decompose_delta": decomposed,
            "decompose.reduce_lambda": decomposed,
            "predicates.is_member": is_member,
            "foxcover.eta_chain": eta_route,
            "foxcover.eta_fox": eta_route,
            "ringlinalg.RingMatrix.__mul__": matmul,
        }

    # -- results -----------------------------------------------------------

    def totals(self):
        """Per-function calls, strict self time and layer-local time, per-layer
        inclusive time, and the number of entries into the generators layer.

        Strict self time is a span's duration minus all of its child spans;
        it partitions the traced time, so a layer's self time is the sum over
        its spans.  Layer-local time adds the layer-local time of child spans
        in the same layer: the time a function spends in its own layer, with
        its calls to public helpers of that layer counted as its own.
        Inclusive time sums the spans that have no ancestor in their layer.
        """
        nf = len(self.names)
        layer_of = [LAYERS.index(name.split(".", 1)[0]) for name in self.names]
        gen_fn = [name.startswith("generators.") and name.count(".") == 1
                  for name in self.names]
        gen_bit = 1 << LAYERS.index("generators")
        fid, parent, t0, t1 = self.fid, self.parent, self.t0, self.t1
        n = len(t0)
        above = array("i", bytes(4 * n))  # bit mask of the layers above a span
        for i in range(n):
            p = parent[i]
            if p >= 0:
                above[i] = above[p] | (1 << layer_of[fid[p]])
        calls = [0] * nf
        strict = [0.0] * nf
        local = [0.0] * nf
        inclusive = [0.0] * len(LAYERS)
        child = array("d", bytes(8 * n))
        child_local = array("d", bytes(8 * n))
        builds = 0
        # children start after their parent, so a reverse pass has summed a
        # span's children by the time it reaches the span
        for i in range(n - 1, -1, -1):
            f = fid[i]
            lay = layer_of[f]
            dur = t1[i] - t0[i]
            own = dur - child[i]
            loc = own + child_local[i]
            calls[f] += 1
            strict[f] += own
            if not (above[i] >> lay) & 1:
                inclusive[lay] += dur
            if gen_fn[f] and not above[i] & gen_bit:
                builds += 1
            p = parent[i]
            if p < 0:
                local[f] += loc
                continue
            child[p] += dur
            fp = fid[p]
            if layer_of[fp] == lay:
                child_local[p] += loc
            if fp != f:  # a directly recursive call is inside its caller's time
                local[f] += loc
        return {
            "calls": dict(zip(self.names, calls)),
            "strict": dict(zip(self.names, strict)),
            "local": dict(zip(self.names, local)),
            "inclusive": dict(zip(LAYERS, inclusive)),
            "builds": builds,
        }

    def metrics(self):
        tot = self.totals()
        c = self.counters

        def n(name):
            return tot["calls"].get(name, 0)

        def t(name):
            return tot["local"].get(name, 0.0)

        def frac(num, den):
            return num / den if den else 0.0

        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(s for k, s in tot["strict"].items()
                                         if k.split(".", 1)[0] == layer)
            out[f"{layer}.total_s"] = tot["inclusive"][layer]
        factors = c.get("evaluate.factors", 0)
        out.update({
            "cli.main.calls": n("cli.main"),
            "wordlang.parse.calls": n("wordlang.parse"),
            "wordlang.evaluate.calls": n("wordlang.evaluate"),
            "wordlang.factors": factors,
            "wordlang.neg_exp_frac": frac(c.get("evaluate.neg", 0), factors),
            "decompose.decompose_delta.calls": n("decompose.decompose_delta"),
            "decompose.reduce_lambda.calls": n("decompose.reduce_lambda"),
            "decompose.word_len_mean": frac(c.get("decompose.letters", 0),
                                            c.get("decompose.words", 0)),
            "generators.build.calls": tot["builds"],
            "generators.matrix_of.calls": n("generators.matrix_of"),
            "generators.matrix_of.repeat_frac": frac(c.get("matrix_of.repeat", 0),
                                                     n("generators.matrix_of")),
            "predicates.is_member.calls": n("predicates.is_member"),
            "predicates.negative_frac": frac(c.get("is_member.negative", 0),
                                             n("predicates.is_member")),
            "foxcover.check_member.self_s": t("foxcover.check_member"),
            "foxcover.eta_chain.self_s": t("foxcover.eta_chain"),
            "foxcover.eta_fox.self_s": t("foxcover.eta_fox"),
            "foxcover.image_letters": c.get("image_letters", 0),
            "ringlinalg.matmul.calls": c.get("matmul", 0),
            "ringlinalg.det.calls": n("ringlinalg.RingMatrix.det"),
            "ringlinalg.det.self_s": t("ringlinalg.RingMatrix.det"),
            "ringlinalg.inverse.calls": n("ringlinalg.RingMatrix.inverse"),
            "ringlinalg.inverse.self_s": t("ringlinalg.RingMatrix.inverse"),
            "ringlinalg.preserves_form.calls": n("ringlinalg.preserves_form"),
            "ringlinalg.blocks.calls": n("ringlinalg.BlockMat.blocks"),
            "cyclotomic.mul.calls": n("cyclotomic.CycInt.__mul__")
                                    + n("cyclotomic.CycInt.__rmul__"),
            "cyclotomic.new.calls": n("cyclotomic.CycInt.__init__")
                                    + n("cyclotomic.CycInt.from_poly"),
            "cyclotomic.divide_exact.calls": n("cyclotomic.divide_exact"),
            "cyclotomic.divide_exact.self_s": t("cyclotomic.divide_exact"),
            "cyclotomic.unit_exponent.calls": n("cyclotomic.unit_exponent"),
            "cyclotomic.parse_ring_literal.self_s": t("cyclotomic.parse_ring_literal"),
        })
        return out

    def code_counts(self):
        """Wrapper call counts keyed like cProfile: (file, line, function)."""
        calls = self.totals()["calls"]
        out = {}
        for name, fn in zip(self.names, self.originals):
            code = fn.__code__
            key = (code.co_filename, code.co_firstlineno, code.co_name)
            out[key] = out.get(key, 0) + calls[name]
        return out

    def write(self, stem, **about):
        """Save the spans as <stem>.bin (columns back to back) and <stem>.json."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        columns = [("fid", self.fid), ("parent", self.parent), ("case", self.case),
                   ("t0", self.t0), ("t1", self.t1)]
        with open(stem.with_suffix(".bin"), "wb") as fh:
            for _, col in columns:
                col.tofile(fh)
        meta = {**about, "spans": len(self.t0), "names": self.names,
                "columns": [[name, col.typecode, col.itemsize] for name, col in columns]}
        stem.with_suffix(".json").write_text(json.dumps(meta, indent=1) + "\n")
