"""Traced run of one workload, in one process, for the per-layer metrics.

    python perfbench/trace_run.py SPEC.json

SPEC.json names the CLI invocations (argv and sieve cache directory of each)
and the output files.  The script imports ``ncflow.cli``, wraps the layer
functions listed in TARGETS, runs every invocation in-process through
``ncflow.cli.main``, then removes the wrappers and runs the worker-invariance
probe: ``average_series`` for a ``poly_phase`` and an ``ad_flow`` flow at
``workers=1`` and ``workers=2``.  It writes the spans and a summary as JSON.
ncflow must be importable (``PYTHONPATH=src``).
"""

import json
import os
import sys
import time

from tracer import Tracer


def _size(arg):
    import numpy as np

    return int(np.size(arg))


def _file_bytes(path_arg_index):
    def work(args, kwargs, result):
        path = args[path_arg_index] if len(args) > path_arg_index else kwargs["path"]
        return os.path.getsize(path)

    return work


def _flow_family(args):
    return "flows.values." + args[0].label.split("(")[0]


# (module, attribute path, span name, work items).  Work items: n_max for the
# sieve, points for phases, flow values per block, parts folded, values
# summed, partitions enumerated, file bytes for the cache.
TARGETS = [
    ("cli", "run", "cli.run", None),
    ("moebius", "load_or_build_table", "moebius.load_or_build_table", None),
    ("moebius", "build_table", "moebius.build_table",
     lambda a, k, r: a[0] if a else k.get("n_max", r.n_max)),
    ("moebius", "save_table", "moebius.save_table", _file_bytes(1)),
    ("moebius", "load_table", "moebius.load_table", _file_bytes(0)),
    ("moebius", "phase_values", "moebius.phase_values", lambda a, k, r: _size(r)),
    ("moebius", "exp_sum", "moebius.exp_sum", None),
    ("moebius", "weighted_average", "moebius.weighted_average", None),
    ("moebius", "mertens", "moebius.mertens", None),
    ("moebius", "squarefree_count", "moebius.squarefree_count", None),
    ("moebius", "fold_pairwise", "moebius.fold_pairwise", lambda a, k, r: len(a[0])),
    ("moebius", "tree_sum", "moebius.tree_sum", lambda a, k, r: _size(a[0])),
    ("flows", "average_series", "flows.average_series", None),
    ("flows", "Flow.values", _flow_family, lambda a, k, r: len(r)),
    ("flows", "bsz_check", "flows.bsz_check", None),
    ("flows", "decay_fit", "flows.decay_fit", None),
    ("linalg", "unitary_power", "linalg.unitary_power", None),
    ("linalg", "eig_unitary", "linalg.eig_unitary", None),
    ("linalg", "polar_unitary_factor", "linalg.polar_unitary_factor", None),
    ("linalg", "haar_unitary", "linalg.haar_unitary", None),
    ("linalg", "random_density", "linalg.random_density", None),
    ("linalg", "op_norm", "linalg.op_norm", None),
    ("linalg", "SpectralDecomp.power", "linalg.SpectralDecomp.power", None),
    ("matrix_dynamics", "ad_flow", "matrix_dynamics.ad_flow", None),
    ("matrix_dynamics", "trace_product_sum", "matrix_dynamics.trace_product_sum", None),
    ("matrix_dynamics", "quantize_unitary", "matrix_dynamics.quantize_unitary", None),
    ("matrix_dynamics", "finite_vn_average_bound",
     "matrix_dynamics.finite_vn_average_bound", None),
    ("car_fock", "fock_space", "car_fock.fock_space", None),
    ("car_fock", "creation", "car_fock.creation", None),
    ("car_fock", "annihilation", "car_fock.annihilation", None),
    ("car_fock", "CARPolynomial.__mul__", "car_fock.CARPolynomial.__mul__", None),
    ("car_fock", "normal_order", "car_fock.normal_order", None),
    ("car_fock", "quasifree_eval", "car_fock.quasifree_eval", None),
    ("car_fock", "quasifree_density_matrix", "car_fock.quasifree_density_matrix", None),
    ("car_fock", "CARPolynomial.to_matrix", "car_fock.to_matrix", None),
    ("car_fock", "creation_matrix", "car_fock.creation_matrix", None),
    ("car_fock", "counterexample_flow", "car_fock.counterexample_flow", None),
    ("car_fock", "pure_point_flow", "car_fock.pure_point_flow", None),
    ("free_words", "nc_partitions", "free_words.nc_partitions", lambda a, k, r: len(r)),
    ("free_words", "moments_to_cumulants", "free_words.moments_to_cumulants", None),
    ("free_words", "cumulants_to_moments", "free_words.cumulants_to_moments", None),
    ("free_words", "free_clt_moments", "free_words.free_clt_moments", None),
    ("free_words", "semicircle_moments", "free_words.semicircle_moments", None),
]

PROBE_POLY_N = 2 * 10**6
PROBE_AD_N = 5 * 10**4


def run_invocations(invocations):
    from ncflow import cli

    codes = []
    for inv in invocations:
        if inv["cache_dir"]:
            os.environ["NCFLOW_CACHE_DIR"] = inv["cache_dir"]
        else:
            os.environ.pop("NCFLOW_CACHE_DIR", None)
        codes.append(cli.main(inv["argv"]))
    return codes


def worker_probe(seed):
    """Times average_series at workers 1 and 2; values must agree bit for bit."""
    import numpy as np
    from ncflow import (
        Flow, ad_flow, average_series, build_table, geometric_checkpoints,
        haar_unitary, phase_values, random_density,
    )

    rng = np.random.default_rng(seed)
    coeffs = (0.0, float(rng.random()), float(rng.random()))
    poly = Flow(
        evaluator=lambda n: complex(phase_values(coeffs, n)),
        declared_bound=1.0,
        label="poly_phase(degree=2)",
        values_at=lambda ns: phase_values(coeffs, ns),
    )
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    a = (a + a.conj().T) / 2.0
    a /= np.linalg.norm(a, 2)
    ad = ad_flow(haar_unitary(8, rng), a, random_density(8, rng))
    table = build_table(PROBE_POLY_N)
    elapsed = {1: 0.0, 2: 0.0}
    identical = True
    for flow, n in ((poly, PROBE_POLY_N), (ad, PROBE_AD_N)):
        cps = geometric_checkpoints(n)
        series = {}
        for workers in (1, 2):
            start = time.perf_counter()
            series[workers] = average_series(flow, table, cps, workers=workers)
            elapsed[workers] += time.perf_counter() - start
        identical &= (
            series[1].values.tobytes() == series[2].values.tobytes()
            and series[1].abs_mu_counts == series[2].abs_mu_counts
        )
    return {
        "identical": bool(identical),
        "workers1_s": elapsed[1],
        "workers2_s": elapsed[2],
        "speedup": elapsed[1] / elapsed[2],
    }


def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    import ncflow.cli  # noqa: F401  (loads every ncflow module before patching)

    tracer = Tracer()
    tracer.install(TARGETS)
    try:
        codes = run_invocations(spec["invocations"])
    finally:
        tracer.uninstall()
    probe = worker_probe(spec["probe_seed"])
    with open(spec["spans_out"], "w") as fh:
        json.dump(tracer.spans, fh)
    with open(spec["result_out"], "w") as fh:
        json.dump({"exit_codes": codes, "missing": tracer.missing, "probe": probe}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
