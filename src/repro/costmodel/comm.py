"""Communication cost model: ring collectives, p2p, and host copies.

Communication is "modeled symbolically by dividing communicated bytes by
the bandwidth" (paper Section 5.2.1). Collective formulas follow the
standard ring algorithm costs; group size and bus bandwidth may be
either numbers or symbols, so the same formulas serve the symbolic
analyzer (bandwidths substituted at evaluation time) and the execution
engine (fully concrete).

``bytes_`` for :func:`all_gather_time` / :func:`reduce_scatter_time` is
the *full* (gathered/unreduced) tensor size.
"""

from __future__ import annotations

from repro.symbolic import Expr, ExprLike, as_expr

__all__ = [
    "all_reduce_time",
    "all_gather_time",
    "reduce_scatter_time",
    "p2p_time",
    "host_copy_time",
]


def all_reduce_time(bytes_: ExprLike, n: ExprLike, bus_bw: ExprLike,
                    latency: ExprLike = 0.0) -> Expr:
    """Ring all-reduce: ``2(n-1)/n`` of the data crosses each link."""
    bytes_, n, bus_bw = as_expr(bytes_), as_expr(n), as_expr(bus_bw)
    volume = 2 * (n - 1) / n * bytes_
    return volume / bus_bw + 2 * (n - 1) * as_expr(latency)


def all_gather_time(bytes_: ExprLike, n: ExprLike, bus_bw: ExprLike,
                    latency: ExprLike = 0.0) -> Expr:
    """Ring all-gather of a tensor whose *gathered* size is ``bytes_``."""
    bytes_, n, bus_bw = as_expr(bytes_), as_expr(n), as_expr(bus_bw)
    volume = (n - 1) / n * bytes_
    return volume / bus_bw + (n - 1) * as_expr(latency)


def reduce_scatter_time(bytes_: ExprLike, n: ExprLike, bus_bw: ExprLike,
                        latency: ExprLike = 0.0) -> Expr:
    """Ring reduce-scatter of a tensor of full size ``bytes_``."""
    return all_gather_time(bytes_, n, bus_bw, latency)


def p2p_time(bytes_: ExprLike, bw: ExprLike, latency: ExprLike = 0.0) -> Expr:
    """Point-to-point send/recv between adjacent pipeline stages."""
    return as_expr(bytes_) / as_expr(bw) + as_expr(latency)


def host_copy_time(bytes_: ExprLike, pcie_bw: ExprLike) -> Expr:
    """H2D or D2H copy over the host link (one direction)."""
    return as_expr(bytes_) / as_expr(pcie_bw)
