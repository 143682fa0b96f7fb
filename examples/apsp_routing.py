"""All-pairs shortest paths on a road-style network — the paper's Figure 7.

Mirrors the paper's host-side CUDA workflow step by step on the emulated
device through :class:`~repro.runtime.HostRuntime`: allocate a device
buffer, copy the adjacency matrix in, iterate ``simd2_minplus`` with a
convergence check, copy the distances out — then
validates the result against the ECL-APSP-style tiled Floyd–Warshall
baseline and reports iteration statistics for Leyzorek vs Bellman-Ford.

Run:  python examples/apsp_routing.py
"""

from __future__ import annotations

import numpy as np

from repro.apps import apsp_baseline
from repro.datasets import GraphSpec, distance_graph
from repro.hw import Simd2Device
from repro.runtime import HostRuntime, closure
from repro.timing import app_times


def figure7_host_workflow(adjacency: np.ndarray) -> np.ndarray:
    """The paper's Figure 7 loop, driven through the host runtime."""
    host = HostRuntime(Simd2Device(sm_count=4))
    # cudaMalloc + cudaMemcpy(H2D)
    host.upload("dist_d", adjacency)
    # while (!converge) { simd2_minplus(...); check_convergence(...); }:
    # whole-matrix mmos on the SIMD² units (instruction-level emulation),
    # each followed by an element-wise convergence check on device memory.
    outcome = host.run_closure("min-plus", "dist_d", method="bellman-ford")
    # cudaMemcpy(D2H)
    result = host.download("dist_d")
    device = host.device
    print(f"  device ran {device.kernel_launches} kernel launches, "
          f"{device.stats.mmos} warp-level mmo instructions, "
          f"{outcome.iterations} Bellman-Ford iterations")
    print(f"  host timeline: {' '.join(host.event_kinds())}")
    return result


def main() -> None:
    spec = GraphSpec(num_vertices=48, edge_probability=0.12, seed=42)
    adjacency = distance_graph(spec)
    print(f"Road network: {spec.num_vertices} junctions, "
          f"{int(np.isfinite(adjacency).sum() - spec.num_vertices)} directed roads")

    print("\n[1] Figure-7 workflow on the emulated device (Bellman-Ford):")
    distances = figure7_host_workflow(adjacency)

    print("\n[2] Validation against the tiled Floyd-Warshall baseline:")
    baseline = apsp_baseline(adjacency)
    assert np.array_equal(distances, baseline.distances)
    reachable = np.isfinite(distances).mean()
    print(f"  distances match ECL-APSP-style baseline exactly; "
          f"{reachable:.0%} of pairs reachable")

    print("\n[3] Algorithmic comparison (paper Section 6.4):")
    for method in ("bellman-ford", "leyzorek"):
        result = closure("min-plus", adjacency, method=method)
        print(f"  {method:13s}: {result.iterations} iterations, "
              f"{result.total_mmo_instructions} tile mmos, converged={result.converged}")

    print("\n[4] Modelled paper-scale performance (RTX 3080 class, Fig 11):")
    for size in (4096, 8192, 16384):
        times = app_times("APSP", size)
        print(f"  n={size:6d}: baseline {times.baseline_s*1e3:8.1f} ms, "
              f"SIMD2 units {times.simd2_units_s*1e3:7.1f} ms "
              f"-> {times.speedup_units:5.2f}x speedup")


if __name__ == "__main__":
    main()
