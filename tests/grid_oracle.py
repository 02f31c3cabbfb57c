"""The N-Jacobi basis over a whole grid, as a test oracle.

The package evaluates the basis only at the times it reads: the focal
scan's decomposed times, the claim times, the vanishing times of the
vertical fields.  Tests that check a fact over every grid time build the
whole stack here, from the same closed form.
"""

from polaris import transversal


def basis_on_grid(geod, derivative=False):
    """Frame values (or covariant derivatives) of the N-Jacobi basis fields
    at every grid time of ``geod``, shape (n_t, m, n_fields): one column per
    field, in the row order of ``n_jacobi_space``."""
    return transversal._closed_form(geod, *transversal._basis_modes(geod), geod.times,
                                    derivative)
