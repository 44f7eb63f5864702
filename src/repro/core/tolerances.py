"""Shared numeric tolerances for feasibility and cache auditing.

Every budget comparison in the repository — the vectorized kernel's
``feasible_mask``, the scalar ``can_attend``/trim loops, and the
:func:`repro.core.constraints.check_plan` validator — must use the *same*
slack, or a plan one layer builds can be flagged infeasible by another
(route costs are maintained by O(1) splice deltas, so the two sides of a
comparison rarely see bit-identical floats).  Before this module existed
the solvers used ``1e-9`` while the checker used ``1e-6``; the constants
now live here so the invariant "builder-feasible implies checker-feasible"
holds by construction.
"""

from __future__ import annotations

# Slack allowed on ``route_cost <= budget`` comparisons, everywhere.
BUDGET_TOL = 1e-6

# Relative margin, per summed term, of ``check_plan``'s vectorized budget
# screen.  The screen adds a user's route-cost terms (two home legs, the
# event-to-event hops, the fees: k = 2p + 1 non-negative floats for a
# p-event plan) in a different order than ``Instance.route_cost`` does.
# Any order of adding k non-negative doubles lands within
# gamma = (k - 1) u / (1 - (k - 1) u) of the exact sum S (u = 2**-53, the
# unit roundoff), so the two computed costs A (screen) and C (scalar)
# obey C <= A (1 + gamma) / (1 - gamma) ~= A (1 + 2 (k - 1) u).  The screen
# flags a user when A * (1 + k * BUDGET_SCREEN_REL) > budget + BUDGET_TOL;
# at 1e-15 (about 9 u per term) that factor exceeds the bound plus the
# three roundings of the screen's own expression for every k >= 1, so a
# user the scalar check would find over budget is always flagged.  It
# only decides who gets the scalar check, never a verdict.
BUDGET_SCREEN_REL = 1e-15

# Splice-delta route caches accumulate float error over long mutation
# streams.  Drift beyond this threshold triggers a re-pin to the exact
# recompute (see ``GlobalPlan.repin_route_cost``); drift within it is
# considered healthy.
ROUTE_DRIFT_REPIN_TOL = 1e-7

# The invariant auditor treats cached-vs-recomputed route costs (and other
# float quantities) as equal within this tolerance.  It must be at least
# ROUTE_DRIFT_REPIN_TOL (re-pinning keeps drift below that) and strictly
# below BUDGET_TOL (so audited costs cannot cross a feasibility boundary
# the solvers respected).
AUDIT_FLOAT_TOL = 5e-7
