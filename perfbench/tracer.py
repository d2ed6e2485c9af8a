"""Counting and timing wrappers installed around monoidkit's public functions
and element products, from outside the library.

A function is replaced under every name that refers to it in any loaded
monoidkit module, so calls the library makes internally are counted too; a
product is replaced on its class, so `*` and `operator.mul` both reach the
wrapper.  Times are inclusive: a wrapped call that makes other wrapped calls
contains their time and their wrapper overhead.
"""

from __future__ import annotations

import sys
import time

from monoidkit import congruence, elements, ideals, order, pmonoid, textio

# (label, owner, attribute, extra): owner is a class for products and a module
# for functions; extra maps a result to a count summed under the label.
TARGETS = (
    ("elements.pm_mul", elements.PartialMap, "__mul__", None),
    ("elements.partition_mul", elements.Partition, "__mul__", None),
    ("elements.enumerate", elements, "enumerate_elements", None),
    ("congruence.rc_close", congruence, "rc_close", lambda rho: len(rho.trace)),
    ("congruence.y_sequence", congruence, "y_sequence", None),
    ("congruence.annihilator", congruence, "annihilator", None),
    ("congruence.kappa", congruence, "kappa", None),
    ("ideals.meet", ideals, "meet", None),
    ("ideals.verify_meet", ideals, "verify_meet", None),
    ("order.leq", order, "leq_R", None),
    ("order.leq", order, "leq_L", None),
    ("order.leq_oracle", order, "leq_oracle", None),
    ("pmonoid.nf_mul", pmonoid, "nf_mul", None),
    ("pmonoid.nf_window", pmonoid, "nf_window", None),
    ("pmonoid.in_annihilator", pmonoid, "in_annihilator", None),
    ("pmonoid.annihilator_witness", pmonoid, "annihilator_witness", None),
    ("pmonoid.chain_search", pmonoid, "chain_search", lambda report: report.explored),
    ("textio.parse", textio, "parse_element", None),
    ("textio.format", textio, "format_element", None),
)


class Tracer:
    """Per-label [calls, seconds, extra] totals, gathered while `active`."""

    def __init__(self):
        self.stats = {}
        self.active = False
        self._restore = []

    def _wrap(self, label, fn, extra):
        stat = self.stats.setdefault(label, [0, 0.0, 0])
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            start = clock()
            result = fn(*args, **kwargs)
            stat[1] += clock() - start
            stat[0] += 1
            if extra is not None:
                stat[2] += extra(result)
            return result

        return wrapper

    def install(self):
        modules = [m for name, m in sys.modules.items() if name == "monoidkit" or name.startswith("monoidkit.")]
        for label, owner, attr, extra in TARGETS:
            original = getattr(owner, attr)
            wrapper = self._wrap(label, original, extra)
            holders = [owner] if isinstance(owner, type) else modules
            for holder in holders:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, name, wrapper)
                        self._restore.append((holder, name, original))

    def uninstall(self):
        for holder, name, original in reversed(self._restore):
            setattr(holder, name, original)
        self._restore.clear()
        self.active = False
