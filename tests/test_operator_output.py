"""Toeplitz CSV cells and the defect square root, against their old forms.

The CSV text must stay byte-identical to the ``csv.writer`` loop with one
``fmt_real`` per part that it replaced, kept here as the reference. The
defect square root is built on first access, with the same arithmetic as
the eager construction it replaced.
"""

import csv
import io

import numpy as np
import pytest

from diskkernels import BlaschkeProduct, SpaceWeight, defect, toeplitz_analytic
from diskkernels.formatting import fmt_real
from diskkernels.operators import TruncatedToeplitz, write_matrix_cells


def _reference_cells(matrix, lineterminator):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator=lineterminator)
    for row in matrix:
        writer.writerow(["%s,%s" % (fmt_real(v.real), fmt_real(v.imag)) for v in row])
    return buf.getvalue()


def _cells(matrix, lineterminator):
    op = TruncatedToeplitz(
        degree=matrix.shape[0] - 1,
        weight=SpaceWeight.for_degree(0.0, matrix.shape[0] - 1),
        matrix=matrix,
        symbol=BlaschkeProduct((0.5,)),
        analytic=True,
    )
    buf = io.StringIO()
    write_matrix_cells(op, buf, lineterminator=lineterminator)
    return buf.getvalue()


def _edge_matrix():
    tiny = 5e-324
    values = [0.0, -0.0, tiny, -tiny, 2.2e-308, 1e300, -1e300, 1.0 / 3.0, -7.0, 1e-17]
    rng = np.random.default_rng(11)
    re = rng.choice(values, size=(5, 5))
    im = rng.choice(values, size=(5, 5))
    M = re + 1j * im
    M[0, 0] = complex(-0.0, -0.0)
    M[0, 1] = complex(0.0, -0.0)
    return M


@pytest.mark.parametrize("lineterminator", ["\n", "\r\n"])
def test_cells_match_the_csv_writer_loop(lineterminator):
    M = _edge_matrix()
    got = _cells(M, lineterminator)
    assert got == _reference_cells(M, lineterminator)
    assert _cells(np.asfortranarray(M), lineterminator) == got
    assert _cells(M.T, lineterminator) == _reference_cells(M.T, lineterminator)
    assert '"-0,-0"' in got and "4.9406564584124654e-324" in got and "e+300" in got


@pytest.mark.parametrize("lineterminator", ["\n", "\r\n"])
def test_toeplitz_cells_match_the_csv_writer_loop(lineterminator):
    b = BlaschkeProduct((0.5, -0.3 + 0.2j, 0.7j))
    op = toeplitz_analytic(b, SpaceWeight.for_degree(1.0, 40), 40)
    buf = io.StringIO()
    write_matrix_cells(op, buf, lineterminator=lineterminator)
    assert buf.getvalue() == _reference_cells(op.matrix, lineterminator)


def test_one_by_one_matrix():
    M = np.array([[complex(1e300, -5e-324)]])
    want = '"1.0000000000000001e+300,-4.9406564584124654e-324"\r\n'
    assert _cells(M, "\r\n") == _reference_cells(M, "\r\n") == want


def test_defect_square_root_is_built_on_first_access():
    b = BlaschkeProduct((0.5, -0.2 + 0.3j))
    D = defect(b, SpaceWeight.for_degree(1.0, 24), 24)
    assert "sqrt_matrix" not in vars(D)
    S = D.sqrt_matrix
    assert D.sqrt_matrix is S
    assert not S.flags.writeable
    vecs = D.eigenvectors
    eager = (vecs * D.sqrt_eigenvalues) @ vecs.conj().T
    np.testing.assert_array_equal(S, 0.5 * (eager + eager.conj().T))
