"""Closed-form Jacobians of the scoring variants, assembled entry by entry:
the test oracle for the VJP-built Jacobians of sasoftmax.jacobians.

For a live row z with s = softmax(z), scaler c = (z - lo) / d and weights
w = c * s, the Jacobian entry J[j][k] = dw_j/dz_k splits into

    J[j][k] = dc[j][k] * s_j  +  c_j * s_j * (1[j=k] - s_k)

where the second term is the usual softmax Jacobian weighted by the scaler
and the first routes gradient through the scaler:

    dc[j][k] = (1[j=k] - dlo/dz_k) / d  -  c_j / d * dd/dz_k

lo and d follow at most the row's min and max, so dlo/dz and dd/dz are
nonzero only at the argmin/argmax (the lowest tied index). Where d is not
constant it is hi - lo + eps, so dd/dz = dhi/dz - dlo/dz. The two gates
dlo/dz[argmin] and dhi/dz[argmax] per kind come from variants._scaler, and
their positions from the public masked_extrema. That shares its position
finder with the VJP, so tests/test_jacobians.py pins those positions against
a plain loop. The v4 clamps min(x_min, 0) / max(x_max, 0) pass gradient
only while strictly active (x_min < 0, x_max > 0); at the boundary the
constant branch owns the derivative.

The forward (softmax, scaler and gates) is the package's own; the assembly
of the matrix shares no code with the VJP but its in-place scatter _sub_at.
"""

import numpy as np

from sasoftmax.variants import DEFAULT_EPS, _sub_at, _weights, masked_extrema


def closed_form_jacobians(z, kind, eps=DEFAULT_EPS) -> np.ndarray:
    """Closed-form Jacobians of fully live rows, z: (N, T) -> (N, T, T)."""
    z = np.asarray(z, dtype=np.float64)
    mask = np.ones_like(z, dtype=bool)
    s, sc, cs = _weights(z, mask, kind, eps)

    # Scaler-weighted softmax part: diag(c*s) - outer(c*s, s).
    jac = -cs[:, :, np.newaxis] * s[:, np.newaxis, :]
    diag = np.arange(z.shape[1])
    jac[:, diag, diag] += cs
    if sc is None:
        return jac

    # Scaler part dc[j][k] * s_j with c = (z - lo) / d: the identity term,
    # then the lo gate and d's two gates (hi, -lo) in the argmin/argmax
    # columns of each row.
    jac[:, diag, diag] += s / sc.d
    amin, amax = (a[:, np.newaxis, np.newaxis] for a in masked_extrema(z, mask)[2:])
    if sc.lo_at_min is not None:
        _sub_at(jac, amin, (sc.lo_at_min * s / sc.d)[..., np.newaxis])
    if sc.hi_at_max is not None:
        # c_j * s_j / d, with c * s the weights
        quot = cs / sc.d
        _sub_at(jac, amax, (sc.hi_at_max * quot)[..., np.newaxis])
        _sub_at(jac, amin, (-sc.lo_at_min * quot)[..., np.newaxis])
    return jac
