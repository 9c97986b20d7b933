"""The garbling decision's front end as written before W1 was factorized once.

``degradedness.is_degraded`` takes its candidate G0 = W1^+ W2 and witness
(b)'s W1^+ from one factorization of W1: LU for a square W1 of full rank,
one SVD otherwise.  The version below is the earlier front end, in which
``np.linalg.lstsq`` gave G0 and its rank and ``np.linalg.pinv`` gave W1^+,
each by its own SVD.  It shares the certificate checks, the closed-form
witness and the epigraph LP with the package, so the two differ only in
how G0 and W1^+ are computed.  They must reach the same verdicts through
the same LP calls.
"""

from __future__ import annotations

import numpy as np

from mmse_lab import degradedness
from mmse_lab.degradedness import (
    CERT_ROW_TOL,
    FEASIBILITY_TOL,
    Channel,
    GarblingCertificate,
)


def is_degraded(w1: Channel, w2: Channel) -> GarblingCertificate:
    """``degradedness.is_degraded`` with the least-squares front end."""
    m1, m2 = w1.matrix, w2.matrix
    g0, _, rank, _ = np.linalg.lstsq(m1, m2, rcond=None)
    g, residual = degradedness._garbling(g0.ravel(), m1, m2)
    if residual < FEASIBILITY_TOL and degradedness._row_sum_error(g) <= CERT_ROW_TOL:
        return degradedness._shown_feasible(g, residual)
    witness = degradedness._closed_form_witness(m1, m2, g0, np.linalg.pinv(m1),
                                                rank)
    if witness is not None and witness[1] >= FEASIBILITY_TOL:
        return degradedness._shown_infeasible(
            m1, m2, degradedness._simplex_rows(g0), witness[0])
    return degradedness._epigraph(m1, m2)
