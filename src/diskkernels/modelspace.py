"""Takenaka-Malmquist orthonormal bases of finite-dimensional model spaces.

For a finite Blaschke product b with zeros a_1..a_N (in order), element n
(0-based, n < N) is

    e_n(z) = sqrt(1 - |a_{n+1}|^2)/(1 - conj(a_{n+1}) z) *
             prod_{k <= n} (a_k - z)/(1 - conj(a_k) z),

with the same factor convention as the symbol layer (plain z for a zero at
the origin). The e_n form an orthonormal basis of H^2 ominus b H^2 and sum
to the de Branges-Rovnyak kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .functions import BlaschkeProduct, mobius_factor, prefix_products
from .kernels import DBR, PointSet

PAIRING_DEGREE = 256


@dataclass(frozen=True)
class ModelBasis:
    """Takenaka-Malmquist basis attached to a finite Blaschke product."""

    product: BlaschkeProduct

    @property
    def dimension(self) -> int:
        return self.product.degree

    def element_data(self, n: int) -> tuple[tuple, float]:
        """(prefix zeros, normalization constant) of element n."""
        zeros = self.product.zeros
        if not 0 <= n < len(zeros):
            raise IndexError("basis index out of range")
        pole = zeros[n]
        normalization = float(np.sqrt(1.0 - abs(pole) ** 2))
        return zeros[:n], normalization

    def eval_element(self, n: int, z) -> np.ndarray:
        prefix, normalization = self.element_data(n)
        pole = self.product.zeros[n]
        z = np.asarray(z, dtype=complex)
        out = normalization / (1.0 - np.conj(pole) * z)
        for a in prefix:
            out = out * mobius_factor(a, z)
        return out

    def eval_all(self, z) -> np.ndarray:
        """Stack of element values, shape (dimension,) + shape(z)."""
        z = np.asarray(z, dtype=complex)
        return np.stack([self.eval_element(n, z) for n in range(self.dimension)])

    def taylor_matrix(self, order: int = PAIRING_DEGREE) -> np.ndarray:
        """Taylor coefficients of every element through the given degree.

        Element n is its Cauchy series convolved with the product of its n
        prefix factors, which ``prefix_products`` extends by one factor per
        element: 2d truncated convolutions in all for d elements.
        """
        zeros = self.product.zeros
        rows = np.empty((self.dimension, order + 1), dtype=complex)
        for n, (pole, prefix) in enumerate(zip(zeros, prefix_products(zeros, order))):
            normalization = self.element_data(n)[1]
            cauchy = normalization * np.conj(pole) ** np.arange(order + 1)
            rows[n] = np.convolve(cauchy, prefix)[: order + 1]
        return rows

    def orthonormality_defect(self, order: int = PAIRING_DEGREE) -> float:
        """Max deviation of the H^2 Gram matrix from the identity.

        Inner products are computed through Taylor coefficients up to the
        pairing degree; moderate zeros (|a| <= 0.9) keep the tail below
        1e-11 at the default degree.
        """
        C = self.taylor_matrix(order)
        G = C @ C.conj().T
        return float(np.max(np.abs(G - np.eye(self.dimension))))

    def pairing_tail_estimate(self, order: int = PAIRING_DEGREE) -> float:
        """Geometric bound on the coefficient mass ignored by the pairing.

        Element coefficients decay like rho^n with rho the largest zero
        modulus, so the discarded tail of sum_{j > order} |c_j|^2 is bounded
        by |c_order|^2 rho^2/(1 - rho^2) per element; the returned value
        bounds every truncated inner product.
        """
        rho = max(abs(a) for a in self.product.zeros)
        if rho == 0.0:
            return 0.0
        C = self.taylor_matrix(order)
        last = np.abs(C[:, -1]) ** 2
        tails = last * rho * rho / (1.0 - rho * rho)
        return float(np.max(tails))

    def to_json_obj(self) -> list:
        """Basis dump: (prefix zeros, normalization) per element."""
        dump = []
        for n in range(self.dimension):
            prefix, normalization = self.element_data(n)
            dump.append(
                {
                    "prefix": [complex(a) for a in prefix],
                    "normalization": normalization,
                }
            )
        return dump


def takenaka_malmquist(b: BlaschkeProduct) -> ModelBasis:
    """Orthonormal model-space basis for a finite Blaschke product."""
    if not isinstance(b, BlaschkeProduct):
        raise TypeError("the model-space basis needs a finite Blaschke product")
    if b.degree == 0:
        raise ValueError("degree zero leaves an empty model space")
    return ModelBasis(product=b)


def onb_sum_check(b: BlaschkeProduct, points: PointSet) -> float:
    """Max deviation of sum_n e_n(z) conj(e_n(w)) from the closed-form kernel.

    The basis-sum route and the de Branges-Rovnyak formula are computed
    independently; their agreement on a grid is the orthonormal-expansion
    identity for the model-space kernel.
    """
    basis = takenaka_malmquist(b)
    arr = points.array
    E = basis.eval_all(arr)
    summed = np.einsum("ni,nj->ij", E, E.conj())
    direct = DBR(b).eval(arr[:, None], arr[None, :])
    return float(np.max(np.abs(summed - direct)))


def pointwise_bound_constant(b: BlaschkeProduct, points: PointSet) -> float:
    """Grid maximum of sum_n |e_n(w)|^2 (the diagonal of the model kernel)."""
    basis = takenaka_malmquist(b)
    E = basis.eval_all(points.array)
    sums = np.sum(np.abs(E) ** 2, axis=0)
    return float(np.max(sums))
