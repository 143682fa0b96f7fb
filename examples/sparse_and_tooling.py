"""Extensions tour: sparse closure, the matrix API, tracing, verification.

Shows the pieces built beyond the paper's core evaluation:

1. the GraphBLAS-flavoured :class:`SemiringMatrix` API,
2. the GAMMA-style sparse closure (paper §6.5 future work): APSP on a
   sparse graph over CSR with work accounting vs the dense algorithm,
3. the ``sparse`` *backend*: the same spGEMM routed transparently under
   unmodified dense-API code via ``use_context(backend="sparse")``,
4. instruction-level tooling: static verification and execution tracing
   of a generated tile program.

Run:  python examples/sparse_and_tooling.py
"""

from __future__ import annotations

import numpy as np

from repro.compile.lower import build_tile_mmo_program
from repro.core import SemiringMatrix
from repro.datasets import GraphSpec, distance_graph
from repro.hw import ExecutionTrace, SharedMemory, WarpExecutor
from repro.isa import ElementType, MmoOpcode, verify_program
from repro.runtime import Trace, closure, use_context
from repro.sparse import CsrMatrix, sparse_closure


def matrix_api() -> None:
    print("=== 1. SemiringMatrix: algorithms as linear algebra ===")
    inf = np.inf
    roads = SemiringMatrix(
        [[0.0, 3.0, inf, 7.0],
         [3.0, 0.0, 1.0, inf],
         [inf, 1.0, 0.0, 2.0],
         [7.0, inf, 2.0, 0.0]],
        "min-plus",
    )
    two_hop = roads @ roads
    closed, result = roads.closure()
    print(f"direct 0→3: {roads[0, 3]},  two-hop: {two_hop[0, 3]},  "
          f"closure: {closed[0, 3]} in {result.iterations} iterations\n")


def sparse_apsp() -> None:
    print("=== 2. Sparse (GAMMA-style) closure on a CSR graph ===")
    n = 64
    adjacency = distance_graph(GraphSpec(n, 0.05, seed=17))
    csr = CsrMatrix.from_dense(adjacency, implicit=np.inf)
    print(f"graph: {n} vertices, {csr.nnz} stored entries "
          f"({csr.sparsity:.1%} sparse)")

    sparse_result = sparse_closure("min-plus", csr)
    dense_result = closure("min-plus", adjacency)
    assert np.array_equal(
        sparse_result.matrix.to_dense_for("min-plus"),
        dense_result.matrix,
    )
    dense_products = sparse_result.iterations * n**3
    print(f"sparse closure: {sparse_result.iterations} iterations, "
          f"{sparse_result.total_products} scalar products "
          f"(dense algorithm: {dense_products}; "
          f"{1 - sparse_result.total_products / dense_products:.1%} work skipped)")
    print(f"distance matrix fills in: {sparse_result.final_nnz} finite entries\n")


def sparse_backend_routing() -> None:
    print("=== 3. The sparse backend: spGEMM under unmodified dense code ===")
    adjacency = distance_graph(GraphSpec(48, 0.08, seed=23))

    # The exact same closure() call — no sparse-aware code anywhere in the
    # caller — routed through CSR spGEMM by the ambient context, with a
    # Trace summarising every launch it made.
    trace = Trace()
    with use_context(backend="sparse", trace=trace):
        routed = closure("min-plus", adjacency)
    dense = closure("min-plus", adjacency)
    assert np.array_equal(routed.matrix, dense.matrix)

    summary = trace.summary()
    products = summary.spgemm_products
    dense_products = summary.launches * 48**3
    print(f"closure made {summary.launches} launches on "
          f"{'+'.join(sorted(summary.by_backend))}: "
          f"{summary.mmo_instructions} mmo-equivalents, "
          f"{products} spGEMM products "
          f"({1 - products / dense_products:.1%} of dense work skipped), "
          "distances identical to the dense backend\n")


def tooling() -> None:
    print("=== 4. Tile-program tooling: verify, then trace ===")
    program, c_addr, d_addr = build_tile_mmo_program(
        MmoOpcode.MINPLUS, tiles_k=2, boolean=False
    )
    report = verify_program(program)
    print(f"static verification: ok={report.ok}, "
          f"{len(report.registers_used)} registers, "
          f"needs {report.shared_memory_bytes} bytes of shared memory")

    shm = SharedMemory()
    rng = np.random.default_rng(3)
    for kk in range(2):
        shm.write_matrix(kk * 256, rng.integers(1, 9, (16, 16)), ElementType.F16)
        shm.write_matrix((2 + kk) * 256, rng.integers(1, 9, (16, 16)), ElementType.F16)
    shm.write_matrix(c_addr, np.full((16, 16), np.inf), ElementType.F32)

    trace = ExecutionTrace(limit=4)
    WarpExecutor(shm, observer=trace).run(program)
    print("\nfirst retired instructions:")
    print(trace.format())


if __name__ == "__main__":
    matrix_api()
    sparse_apsp()
    sparse_backend_routing()
    tooling()
