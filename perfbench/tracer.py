"""Span recorder that wraps the public entry points of each rotabaxter module.

Each module is one layer.  ``LAYERS`` maps a layer metric group (such as
``linalg.densify``) to the callables it covers, named as
``(module, "function")`` or ``(module, "Class.method")``.  ``Tracer.install``
rebinds every alias of each wrapped function object in every loaded
``rotabaxter`` module, because modules import by name (``from .linalg import
rank``) and wrapping only the defining module would miss those calls.  A name
that no longer exists is skipped, so deleting a function does not break the
benchmark.  Only entry points are wrapped, never per-entry helpers such as
``Matrix.at``.

A span is ``[group, start, end, parent, job]``; spans stay in memory until
``Tracer.dump``.  A span's self time is its duration minus the durations of
its direct children.  The wrappers are swapped in by ``install`` and out by
``uninstall``, so untraced jobs run the original callables.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections import defaultdict
from time import perf_counter


def _cells(counts, group, args, result):
    m = args[0]
    counts[group + ".cells"] += m.rows * m.cols


def _nnz(counts, group, args, result):
    cols = getattr(result, "cols_data", None)
    if cols is not None:
        counts[group + ".nnz"] += sum(len(c) for c in cols)
    else:
        counts[group + ".nnz"] += sum(1 for _ in result.nonzero_items())


def _read_bytes(counts, group, args, result):
    counts[group + ".bytes"] += os.path.getsize(args[0])


def _write_bytes(counts, group, args, result):
    counts[group + ".bytes"] += os.path.getsize(args[1])


PACKAGE = "rotabaxter"

# group -> (module, [callables], counter or None)
LAYERS = {
    "linalg.densify": ("linalg", ["SparseBuilder.to_matrix"], _cells),
    "linalg.eliminate": ("linalg", ["rank", "kernel_basis", "solve",
                                    "inverse"], _cells),
    "linalg.product": ("linalg", ["Matrix.__mul__", "SparseBuilder.compose"],
                       None),
    "linalg.other": ("linalg", ["homology_dim", "SparseBuilder.apply"], None),
    "cohomology.build": ("cohomology", ["rrb_differential_matrix"], _nnz),
    "cohomology.apply": ("cohomology", ["rrb_differential"], None),
    "cohomology.other": ("cohomology", [
        "rrb_cohomology_dim", "derivation_basis", "check_derivation",
        "rb_restrict", "dendriform_differential", "psi_map",
        "semidirect_complex", "semidirect_inclusion_matrix"], None),
    "algebra.check": ("algebra", [
        "check_associativity", "check_bimodule", "check_dendriform",
        "check_dendriform_representation"], None),
    "algebra.hochschild_build": ("algebra", ["hochschild_matrix"], None),
    "algebra.other": ("algebra", [
        "hochschild_cohomology_dim", "hochschild_differential",
        "dual_bimodule", "semidirect_algebra", "total_algebra"], None),
    "rrb.check": ("rrb", [
        "check_relative_rb", "check_rota_baxter", "check_morphism",
        "aybe_check", "check_rb_bimodule"], None),
    "rrb.other": ("rrb", [
        "lift_to_rb", "induced_dendriform", "rb_from_r_matrix",
        "rb_bimodule_from_r_matrix", "endomorphism_rrb"], None),
    "rrb_modules.check": ("rrb_modules", [
        "check_pairing_identities", "check_operator_identities",
        "check_rrb_bimodule", "check_differential_pair"], None),
    "rrb_modules.other": ("rrb_modules", [
        "adjoint_bimodule", "dual_rrb_bimodule", "coadjoint_bimodule",
        "morphism_induced_bimodule", "semidirect_rrb", "lift_bimodule",
        "mtot_action_bimodule", "induced_dendriform_representation",
        "dendriform_to_rrb", "invert_differential_pair"], None),
    "classification.check": ("classification", [
        "check_abelian_extension", "check_extension_morphism",
        "check_two_term_ainfty", "check_ainfty_bimodule",
        "check_homotopy_rrb_operator"], None),
    "classification.construct": ("classification", [
        "build_extension", "extract_cocycle", "skeletal_to_triple",
        "triple_to_skeletal", "induced_fiber_bimodule",
        "canonical_section"], None),
    "fileformat.parse": ("fileformat", ["parse_path", "parse_text",
                                        "parse_document"], None),
    "fileformat.write": ("fileformat", [
        "write_path", "dump_document", "new_document",
        "declare_assoc_algebra", "declare_bimodule", "declare_rrb_algebra",
        "declare_rrb_bimodule", "declare_cocycle", "declare_extension",
        "declare_two_term", "declare_ainfty_bimodule",
        "declare_homotopy_rrb"], None),
    "cli.self": ("cli", ["main"], None),
    "samples.generate": ("samples", [
        "random_rrb_pair", "random_rrb_cocycle", "transport_rrb",
        "transport_bimodule"], None),
}

# Counters that only one callable of a group feeds.
SINGLE_COUNTERS = {
    ("fileformat.parse", "parse_path"): _read_bytes,
    ("fileformat.write", "write_path"): _write_bytes,
}

# Groups whose number of calls is reported.
CALL_COUNTED = {"linalg.eliminate", "linalg.product", "cohomology.build"}

# Every count the wrappers keep, with its unit.
COUNTS = {
    "linalg.densify.cells": "count",
    "linalg.eliminate.calls": "count",
    "linalg.eliminate.cells": "count",
    "linalg.product.calls": "count",
    "cohomology.build.calls": "count",
    "cohomology.build.nnz": "count",
    "fileformat.parse.bytes": "bytes",
    "fileformat.write.bytes": "bytes",
}


class Tracer:
    """Records spans around the wrapped entry points while installed."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = None
        self.counts = defaultdict(int)
        self._swaps = []  # (owner, attribute, original, wrapper)

    def _wrap(self, group, fn, counter):
        spans, stack, counts = self.spans, self.stack, self.counts
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [group, 0.0, 0.0, stack[-1] if stack else -1, tracer.job]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if group in CALL_COUNTED:
                counts[group + ".calls"] += 1
            if counter is not None:
                counter(counts, group, args, result)
            return result

        return traced

    def install(self):
        """Swap in the wrapper of every listed callable that exists."""
        if not self._swaps:
            self._find()
        for owner, attr, _, traced in self._swaps:
            setattr(owner, attr, traced)

    def uninstall(self):
        """Put every original callable back."""
        for owner, attr, original, _ in reversed(self._swaps):
            setattr(owner, attr, original)

    def _find(self):
        prefix = PACKAGE + "."
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and name.startswith(prefix)]
        for group, (modname, names, counter) in LAYERS.items():
            mod = sys.modules.get(prefix + modname)
            if mod is None:
                continue
            for name in names:
                count = SINGLE_COUNTERS.get((group, name), counter)
                if "." in name:
                    self._find_method(mod, name, group, count)
                else:
                    self._find_function(modules, mod, name, group, count)

    def _find_function(self, modules, mod, name, group, counter):
        fn = getattr(mod, name, None)
        if not callable(fn):
            return
        traced = self._wrap(group, fn, counter)
        for m in modules:
            for attr, val in vars(m).items():
                if val is fn:
                    self._swaps.append((m, attr, fn, traced))

    def _find_method(self, mod, name, group, counter):
        cls_name, meth = name.split(".")
        cls = getattr(mod, cls_name, None)
        raw = None if cls is None else cls.__dict__.get(meth)
        if raw is not None:
            self._swaps.append((cls, meth, raw,
                                self._wrap(group, raw, counter)))

    def clear(self):
        self.spans.clear()
        self.counts.clear()

    def self_times(self):
        """Summed self time per group."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        out = defaultdict(float)
        for i, (group, start, end, _, _) in enumerate(self.spans):
            out[group] += (end - start) - child[i]
        return out

    def inclusive_time(self, group):
        """Summed duration of the group's outermost spans."""
        spans = self.spans
        return sum(end - start for g, start, end, parent, _ in spans
                   if g == group and (parent < 0 or spans[parent][0] != group))

    def dump(self, path):
        """Write the spans, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for group, start, end, parent, job in self.spans:
                fh.write(json.dumps([group, start, end, parent, job]) + "\n")
