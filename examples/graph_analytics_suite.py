"""A graph-analytics tour: one generated graph, five SIMD² instructions.

Runs the full path-problem family the paper motivates — reachability
(or-and), shortest paths (min-plus), critical paths (max-plus), maximum
capacity (max-min) and maximum reliability (max-mul) — each validated
against its classical baseline, and prints the modelled Figure 11/13
speedups for the whole application suite.

Run:  python examples/graph_analytics_suite.py
"""

from __future__ import annotations

import numpy as np

from repro.apps import (
    aplp_baseline,
    aplp_simd2,
    apsp_baseline,
    apsp_simd2,
    gtc_baseline,
    gtc_simd2,
    max_capacity_baseline,
    max_capacity_simd2,
    max_reliability_baseline,
    max_reliability_simd2,
)
from repro.datasets import (
    GraphSpec,
    boolean_graph,
    capacity_graph,
    dag_distance_graph,
    distance_graph,
    reliability_graph,
)
from repro.timing import APP_SIZES, APPS, app_times


def main() -> None:
    spec = GraphSpec(num_vertices=150, edge_probability=0.1, seed=123)
    print(f"graph workloads: {spec.num_vertices} vertices, p={spec.edge_probability}\n")

    # --- reachability: or-and ------------------------------------------
    adj = boolean_graph(spec, reflexive=False)
    base = gtc_baseline(adj)
    simd = gtc_simd2(adj, method="blocked")
    assert np.array_equal(base.reachable, simd.reachable)
    print(f"or-and   GTC   : {simd.reachable.mean():5.1%} of pairs connected "
          f"({simd.closure_result.method} closure, "
          f"{simd.closure_result.iterations} rounds)")

    # --- shortest paths: min-plus --------------------------------------
    dist_adj = distance_graph(spec)
    base_d = apsp_baseline(dist_adj)
    simd_d = apsp_simd2(dist_adj)
    assert np.array_equal(base_d.distances, simd_d.distances)
    finite = simd_d.distances[np.isfinite(simd_d.distances)]
    print(f"min-plus APSP  : mean shortest distance {finite.mean():.2f}")

    # --- critical paths: max-plus --------------------------------------
    dag = dag_distance_graph(spec)
    base_l = aplp_baseline(dag)
    simd_l = aplp_simd2(dag)
    assert np.array_equal(base_l.lengths, simd_l.lengths)
    longest = simd_l.lengths[np.isfinite(simd_l.lengths)].max()
    print(f"max-plus APLP  : critical path length {longest:.2f}")

    # --- capacity: max-min ----------------------------------------------
    cap = capacity_graph(spec, maximize=True)
    base_c = max_capacity_baseline(cap)
    simd_c = max_capacity_simd2(cap)
    assert np.array_equal(base_c.values, simd_c.values)
    offdiag = simd_c.values[~np.eye(spec.num_vertices, dtype=bool)]
    print(f"max-min  MaxCP : best capacity {offdiag[np.isfinite(offdiag)].max():.2f}")

    # --- reliability: max-mul --------------------------------------------
    rel = reliability_graph(spec, maximize=True)
    base_r = max_reliability_baseline(rel)
    simd_r = max_reliability_simd2(rel)
    np.testing.assert_allclose(simd_r.values, base_r.values, rtol=1e-2, atol=1e-4)
    print(f"max-mul  MaxRP : most reliable route "
          f"{simd_r.values[~np.eye(spec.num_vertices, dtype=bool)].max():.3f} "
          "(fp16 datapath, validated to fp32 baseline within tolerance)")

    # --- modelled Figure 11 summary --------------------------------------
    print("\nModelled paper-scale speedups (Fig 11 / Fig 13 sparse):")
    header = f"{'app':6s} {'size':>6s} {'dense':>8s} {'sparse':>8s}"
    print(header)
    for app in APPS:
        size = APP_SIZES[app][1]  # Medium
        dense = app_times(app, size).speedup_units
        sparse = app_times(app, size, sparse_unit=True).speedup_units
        print(f"{app:6s} {size:6d} {dense:7.2f}x {sparse:7.2f}x")


if __name__ == "__main__":
    main()
