"""Spans and counts at the layer boundaries of kmgroups, recorded from
outside the package.

Tracer.install replaces each traced name where the pipeline looks it up
(for example kmgroups.weightmod.hnf_rows, the name build_module calls)
with a wrapper that records a span: name, start, end and parent.  Some
wrappers also take counts from the arguments and results.  The time the
wrappers spend on their own bookkeeping is kept off the span clock, so
spans and self times measure the program.  Spans stay in memory until
write() saves them with the per-layer metrics.
"""

from __future__ import annotations

import json
import os
import time
import weakref
from collections import Counter, defaultdict

GENERATORS = ("chi_plus", "chi_minus", "w_tilde", "h_element")

# (module, attribute, span name): module-level names, wrapped where looked up.
FUNCTIONS = [
    ("kmgroups.cli", "main", "cli.main"),
    ("kmgroups.cli", "build_module", "weightmod.build_module"),
    ("kmgroups.cli", "module_to_json", "weightmod.module_to_json"),
    ("kmgroups.weightmod", "hnf_rows", "linalg.hnf_rows"),
    ("kmgroups.cli", "verify_all", "verifier.verify_all"),
    ("kmgroups.cli", "kernel_probe", "verifier.kernel_probe"),
    ("kmgroups.verifier", "kernel_probe", "verifier.kernel_probe"),
    ("kmgroups.cli", "resolve_commutator_sign", "verifier.resolve_commutator_sign"),
    ("kmgroups.verifier", "verify_relation", "verifier.verify_relation"),
    ("kmgroups.cli", "evaluate_word", "groupgen.evaluate_word"),
    ("kmgroups.verifier", "evaluate_word", "groupgen.evaluate_word"),
    ("kmgroups.verifier", "h_element", "groupgen.h_element"),
] + [("kmgroups.groupgen", g, f"groupgen.{g}") for g in GENERATORS]

# (module, class, method, span name)
METHODS = [
    ("kmgroups.groupgen", "WindowedMatrix", "__matmul__", "groupgen.matmul"),
    ("kmgroups.groupgen", "WindowedMatrix", "column", "groupgen.column"),
    ("kmgroups.groupgen", "WindowedMatrix", "identity", "groupgen.identity"),
    ("kmgroups.groupgen", "WindowedMatrix", "equal_on_window", "groupgen.equal_on_window"),
    ("kmgroups.verifier", "VerificationReport", "to_json", "verifier.report_to_json"),
]

# Per-layer metric -> unit, in the order BENCHMARK.json lists them.
UNITS = {
    "linalg.hnf_calls": "count",
    "linalg.hnf_s": "s",
    "linalg.hnf_input_cells": "count",
    "linalg.hnf_max_cols": "count",
    "linalg.hnf_kept_row_ratio": "ratio",
    "weightmod.build_s": "s",
    "weightmod.self_s": "s",
    "weightmod.slices": "count",
    "weightmod.nonzero_slice_ratio": "ratio",
    "weightmod.monomials": "count",
    "weightmod.basis_vectors": "count",
    "weightmod.max_entry_bits": "bits",
    "groupgen.matmul_calls": "count",
    "groupgen.matmul_s": "s",
    "groupgen.block_products": "count",
    "groupgen.nonzero_product_ratio": "ratio",
    "groupgen.flag_scan_steps": "count",
    "groupgen.column_calls": "count",
    "groupgen.column_s": "s",
    "groupgen.column_scan_blocks": "count",
    "groupgen.max_blocks": "count",
    "groupgen.generator_requests": "count",
    "groupgen.generator_hit_ratio": "ratio",
    "groupgen.generator_s": "s",
    "groupgen.identity_builds": "count",
    "verifier.instances": "count",
    "verifier.words_evaluated": "count",
    "verifier.relation_self_s": "s",
    "verifier.compare_s": "s",
    "verifier.exact_column_ratio": "ratio",
    "verifier.kernel_s": "s",
    "verifier.kernel_matrix_checks": "count",
    "verifier.report_json_s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, child time]
        self.stack: list[int] = []
        self.paused = 0.0  # bookkeeping seconds kept off the span clock
        self.counts: Counter = Counter()
        self._seen = weakref.WeakSet()  # generator matrices returned so far
        self._hooks = {
            "linalg.hnf_rows": self._on_hnf,
            "weightmod.build_module": self._on_build,
            "groupgen.matmul": self._on_matmul,
            "groupgen.column": self._on_column,
            "groupgen.equal_on_window": self._on_compare,
            "cli.main": self._on_cli,
        }
        for g in GENERATORS:
            self._hooks[f"groupgen.{g}"] = self._on_generator

    def now(self) -> float:
        return time.perf_counter() - self.paused

    # -- installation -------------------------------------------------------

    def install(self, modules: dict) -> None:
        """modules maps each kmgroups module name to the imported module."""
        for mod, attr, name in FUNCTIONS:
            setattr(modules[mod], attr, self._wrap(getattr(modules[mod], attr), name))
        for mod, cls_name, attr, name in METHODS:
            cls = getattr(modules[mod], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self._wrap(raw.__func__, name)))
            else:
                setattr(cls, attr, self._wrap(raw, name))

    def _wrap(self, fn, name):
        hook = self._hooks.get(name)
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            b = time.perf_counter()
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, 0.0])
            stack.append(idx)
            self.paused += time.perf_counter() - b
            start = self.now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.now()
                b = time.perf_counter()
                stack.pop()
                span = spans[idx]
                span[1], span[2] = start, end
                if span[3] >= 0:
                    spans[span[3]][4] += end - start
                self.paused += time.perf_counter() - b
            if hook is not None:
                b = time.perf_counter()
                hook(args, result)
                self.paused += time.perf_counter() - b
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counts taken at the boundaries --------------------------------------

    def _on_hnf(self, args, result):
        rows = args[0]
        self.counts["hnf_rows_in"] += len(rows)
        self.counts["hnf_rows_out"] += len(result)
        ncols = len(rows[0]) if rows else 0
        self.counts["hnf_input_cells"] += len(rows) * ncols
        self.counts["hnf_max_cols"] = max(self.counts["hnf_max_cols"], ncols)

    def _on_build(self, args, result):
        slices = result.slices.values()
        c = self.counts
        c["slices"] += len(slices)
        c["nonzero_slices"] += sum(1 for s in slices if s.rank)
        c["monomials"] += sum(len(s.monomials) for s in slices)
        c["basis_vectors"] += result.total_rank()
        bits = (abs(int(v)).bit_length()
                for blocks in result.ops.values()
                for blk in blocks.values()
                for v in blk.flat)
        c["max_entry_bits"] = max(c["max_entry_bits"], max(bits, default=0))

    def _on_matmul(self, args, result):
        left, right = args
        per_mid = Counter(mid for _, mid in left.blocks)
        self.counts["block_products"] += sum(per_mid[mid] for mid, _ in right.blocks)
        self.counts["nonzero_blocks"] += len(result.blocks)
        # The exactness scan walks every block of the right factor once per
        # exact column (an upper bound: the scan stops at a failing block).
        exact_cols = sum(sum(flags) for flags in right.exact.values())
        self.counts["flag_scan_steps"] += exact_cols * len(right.blocks)
        self._max_blocks(result)

    def _on_column(self, args, result):
        self.counts["column_scan_blocks"] += len(args[0].blocks)

    def _on_compare(self, args, result):
        self.counts["columns_compared"] += result[2]
        self.counts["columns_total"] += args[0].module.total_rank()

    def _on_generator(self, args, result):
        self.counts["generator_requests"] += 1
        if result in self._seen:
            self.counts["generator_hits"] += 1
        else:
            self._seen.add(result)
        self._max_blocks(result)

    def _max_blocks(self, mat):
        self.counts["max_blocks"] = max(self.counts["max_blocks"], len(mat.blocks))

    def _on_cli(self, args, result):
        argv = list(args[0])
        if "--out" in argv:
            path = argv[argv.index("--out") + 1]
            if os.path.exists(path):
                self.counts["output_bytes"] += os.path.getsize(path)

    # -- results --------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        total = defaultdict(float)
        own = defaultdict(float)
        calls = Counter()
        gen_names = {f"groupgen.{g}" for g in GENERATORS}
        generator_s = 0.0
        kernel_checks = 0
        for name, start, end, parent, child in self.spans:
            total[name] += end - start
            own[name] += end - start - child
            calls[name] += 1
            if name in gen_names and (parent < 0 or self.spans[parent][0] not in gen_names):
                generator_s += end - start
            if name == "groupgen.equal_on_window":
                p = parent
                while p >= 0 and self.spans[p][0] != "verifier.kernel_probe":
                    p = self.spans[p][3]
                kernel_checks += p >= 0
        c = self.counts
        return {
            "linalg.hnf_calls": calls["linalg.hnf_rows"],
            "linalg.hnf_s": total["linalg.hnf_rows"],
            "linalg.hnf_input_cells": c["hnf_input_cells"],
            "linalg.hnf_max_cols": c["hnf_max_cols"],
            "linalg.hnf_kept_row_ratio": _ratio(c["hnf_rows_out"], c["hnf_rows_in"]),
            "weightmod.build_s": total["weightmod.build_module"],
            "weightmod.self_s": own["weightmod.build_module"],
            "weightmod.slices": c["slices"],
            "weightmod.nonzero_slice_ratio": _ratio(c["nonzero_slices"], c["slices"]),
            "weightmod.monomials": c["monomials"],
            "weightmod.basis_vectors": c["basis_vectors"],
            "weightmod.max_entry_bits": c["max_entry_bits"],
            "groupgen.matmul_calls": calls["groupgen.matmul"],
            "groupgen.matmul_s": total["groupgen.matmul"],
            "groupgen.block_products": c["block_products"],
            "groupgen.nonzero_product_ratio": _ratio(c["nonzero_blocks"], c["block_products"]),
            "groupgen.flag_scan_steps": c["flag_scan_steps"],
            "groupgen.column_calls": calls["groupgen.column"],
            "groupgen.column_s": total["groupgen.column"],
            "groupgen.column_scan_blocks": c["column_scan_blocks"],
            "groupgen.max_blocks": c["max_blocks"],
            "groupgen.generator_requests": c["generator_requests"],
            "groupgen.generator_hit_ratio": _ratio(c["generator_hits"], c["generator_requests"]),
            "groupgen.generator_s": generator_s,
            "groupgen.identity_builds": calls["groupgen.identity"],
            "verifier.instances": calls["verifier.verify_relation"],
            "verifier.words_evaluated": calls["groupgen.evaluate_word"],
            "verifier.relation_self_s": own["verifier.verify_relation"],
            "verifier.compare_s": total["groupgen.equal_on_window"],
            "verifier.exact_column_ratio": _ratio(c["columns_compared"], c["columns_total"]),
            "verifier.kernel_s": total["verifier.kernel_probe"],
            "verifier.kernel_matrix_checks": kernel_checks,
            "verifier.report_json_s": total["verifier.report_to_json"],
            "cli.self_s": own["cli.main"],
            "cli.output_bytes": c["output_bytes"],
        }

    def write(self, path, extra: dict) -> dict[str, float]:
        """Save spans, counts and metrics as JSON; returns the metrics."""
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        doc = dict(extra)
        doc["metrics"] = self.metrics()
        doc["counts"] = dict(self.counts)
        doc["bookkeeping_s"] = self.paused
        doc["span_names"] = names
        doc["span_fields"] = ["name", "start_s", "end_s", "parent"]
        doc["spans"] = [
            [ids[n], round(s, 7), round(e, 7), p] for n, s, e, p, _ in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
        return doc["metrics"]
