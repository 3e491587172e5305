"""Run one cuspquartics command with its layers timed from outside.

Usage: python3 cuspbench/tracer.py SPANS.json <cuspquartics arguments...>

Before the command runs, each traced function is replaced by a wrapper in
its defining module and in every package module that imported it by name
(``cli`` and ``singular`` bind ``buchberger`` at import, for example).  CPU
time is charged to the layer of the innermost active traced call, so a
layer's self time leaves out the layers it calls; the wrappers' own
bookkeeping is charged to no layer.  The aggregated spans are written to
SPANS.json when the command ends, and the process exits with the command's
exit code.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import Counter

import cuspquartics.cli

clock = time.process_time
IMPORTED = clock()        # CPU seconds from process start to here

LAYERS = ("polyring", "linalg", "groebner", "geometry", "singular", "codes",
          "cli")
# per-term helpers: wrapping them would cost more than the work they do
UNTRACED = {"monomial_mul", "monomial_div", "monomial_lcm", "monomial_degree",
            "order_key", "negated_order_key", "weight", "f3_word",
            "signed_word", "GF"}
METHODS = (("polyring", "Polynomial", "substitute"),
           ("polyring", "PolyRing", "parse"),
           ("groebner", "GroebnerBasis", "verify_buchberger_criterion"))
CERTIFICATES = {"singular.singular_locus_contained_in",
                "singular.cusp_divisibility_certificate",
                "singular.singular_set_certificate"}


class Recorder:
    """Spans of one process, aggregated per traced name and per layer."""

    def __init__(self):
        self.stack = []
        self.last = clock()
        self.self_s = Counter()
        self.calls = Counter()
        self.inclusive_s = Counter()
        self.depth = Counter()
        self.started = {}
        self.counts = Counter()
        self.basis_sizes = []
        self.coeff_bits = 0
        self.classified = set()

    def enter(self, layer, keys):
        now = clock()
        if self.stack:
            self.self_s[self.stack[-1]] += now - self.last
        self.stack.append(layer)
        for key in keys:
            self.calls[key] += 1
            if self.depth[key] == 0:
                self.started[key] = now
            self.depth[key] += 1
        self.last = clock()

    def leave(self, keys):
        now = clock()
        self.self_s[self.stack.pop()] += now - self.last
        for key in keys:
            self.depth[key] -= 1
            if self.depth[key] == 0:
                self.inclusive_s[key] += now - self.started[key]
        return now

    def observe(self, name, args, kwargs, result):
        """Counters read from arguments and return values."""
        if name == "groebner.buchberger":
            self.basis_sizes.append(len(result))
            for g in result:
                for _, c in g.terms:
                    self.coeff_bits = max(self.coeff_bits,
                                          c.numerator.bit_length(),
                                          c.denominator.bit_length())
        elif name == "groebner.radical_membership":
            p_max = kwargs.get("p_max", args[2] if len(args) > 2 else None)
            self.counts["radical_powers"] += result if result is not None else p_max
        elif name == "groebner.normal_form":
            if self.depth["groebner.verify_buchberger_criterion"]:
                self.counts["audit_pairs"] += 1
        elif name == "singular.classify":
            self.classified.add(args[1])
        elif name == "codes.enumerate_constant_weight_codes":
            self.counts["codes_enumerated"] += len(result)
        elif name == "codes.enumerate_divisible_families":
            self.counts["families_kept"] += len(result)

    def wrap(self, layer, name, fn):
        keys = (name, "singular.certificates") if name in CERTIFICATES else (name,)

        def traced(*args, **kwargs):
            self.enter(layer, keys)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.leave(keys)
            self.observe(name, args, kwargs, result)
            self.last = clock()
            return result

        return traced

    def summary(self):
        return {"import_s": IMPORTED,
                "self_s": dict(self.self_s),
                "calls": dict(self.calls),
                "inclusive_s": dict(self.inclusive_s),
                "counts": dict(self.counts),
                "basis_sizes": self.basis_sizes,
                "coeff_bits": self.coeff_bits,
                "classified_points": len(self.classified)}


def install(recorder):
    """Wrap the traced functions wherever the package looks them up."""
    package = {name: mod for name, mod in sys.modules.items()
               if name == "cuspquartics" or name.startswith("cuspquartics.")}
    replaced = {}
    for layer in LAYERS:
        module = package[f"cuspquartics.{layer}"]
        for attr, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not attr.startswith("_") and attr not in UNTRACED):
                replaced[obj] = recorder.wrap(layer, f"{layer}.{attr}", obj)
    for mod in package.values():
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in replaced:
                setattr(mod, attr, replaced[obj])
    for layer, cls, method in METHODS:
        owner = getattr(package[f"cuspquartics.{layer}"], cls)
        setattr(owner, method,
                recorder.wrap(layer, f"{layer}.{method}", getattr(owner, method)))


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder()
    install(recorder)
    try:
        code = cuspquartics.cli.main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(recorder.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
