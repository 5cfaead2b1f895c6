"""Generator and verifier for stable syzygy bundles of monomial families.

Given N, d, n, the package constructs a family of n monomials of degree d in
N+1 variables whose syzygy bundle is stable (or, in the two provable
exceptions, strictly semistable), and certifies the result with an exact
combinatorial check.  A brute-force subset oracle, a splitting-type checker
for the projective line, and positivity audits of the supporting bound
functions keep the fast paths honest.
"""

from .constructions import dispatch
from .criterion import brute_force_check, check_family

__version__ = "0.1.0"
