"""The Borel chart built from leading blocks: the oracle of
:func:`qpslab.gspringer.borel_chart`.

The Borel and unipotent bases are prefixes of the algebra basis, so the
restriction of a matrix on the double to G x B or G x U is one of its
leading blocks.  The quotient pipeline once read every G x B and G x U
quantity that way, with the chart building its own T, W and vertical space.
That construction is written out here, unchanged, so the tests can compare
the chart's index lists and the blocks and complement built on them with it
entry for entry.
"""

from qpslab.dirac import DiracFiber
from qpslab.gspringer import action_generators, omega_matrix, phi_differential
from qpslab.linalg import Mat, null_vectors, rref


def upstairs_dphi(chart) -> Mat:
    """The G x P block of :func:`phi_differential` at a chart's point, at its
    upstairs coordinates; the chart itself keeps only its first dim G rows
    (``dmu_up``)."""
    return phi_differential(chart.ctx, chart.g, chart.p).select_rows(
        chart.up).select_cols(chart.up)


def leading(m: Mat, k: int, cols: int | None = None) -> Mat:
    """The leading k x k block of ``m``, or k x ``cols``."""
    return m.row_block(0, k).col_block(0, k if cols is None else cols)


def prefix_chart(ctx, g, b) -> dict:
    """The chart of the point (g, b) of G x_B B from leading blocks: ``w``,
    ``dphi`` and the ``vertical`` basis on G x B, then the greedy complement
    ``indices`` and ``proj``, and the ``fiber``."""
    amb, h = ctx.dim_g + len(ctx.borel), ctx.dim_g
    w = leading(omega_matrix(ctx, ctx.gram_adjoint(b), range(ctx.dim_g)), amb)
    vertical = leading(action_generators(ctx, b, range(ctx.dim_g)), amb, len(ctx.borel))
    # pivot p of the reversed rref is the coordinate amb - 1 - p
    red, pivots = rref(vertical.transpose().select_cols(range(amb - 1, -1, -1)))
    last = [amb - 1 - p for p in pivots]
    indices = [j for j in range(amb) if j not in last]
    rs = red.select_cols([amb - 1 - j for j in indices])
    order = indices + last
    proj = Mat.identity(h).hstack(-rs.transpose()).select_cols(
        sorted(range(amb), key=order.__getitem__))
    wt = w.transpose()
    null = null_vectors(vertical.transpose() @ wt)
    fiber = DiracFiber((proj @ null).vstack(wt.select_rows(indices) @ null))
    return {"w": w, "dphi": leading(phi_differential(ctx, g, b), amb),
            "vertical": vertical, "indices": tuple(indices), "proj": proj,
            "fiber": fiber}
