"""The engine's numeric tolerances, named in one place.

Each is the slack a comparison allows for rounding, never a modelling
parameter.  A tolerance on a time or duration axis is multiplied by
``max(T, 1)``, so it is relative on long cycles and absolute on short ones;
a tolerance on a power or a price is multiplied by ``max(1, |value|)``.
"""

# Dispatch, times max(1, |value|): an output within this of a capacity bound
# is at the bound (the refusal check and clamp events), a demand within it of
# the fleet's capacity range is servable, and two shadow prices at one
# clamped knot are equal.
DISPATCH_TOL = 1e-9

# Scenario validation: the last load breakpoint matches the declared horizon
# when math.isclose holds with this pair.
HORIZON_REL_TOL = 1e-9
HORIZON_ABS_TOL = 1e-12

# Times max(T, 1): how far a time or a duration may lie outside [0, T] (or
# outside a price's narrower view) before evaluation refuses it.
DOMAIN_TOL = 1e-12

# Relative: a price and the trajectory or measure function it values are on
# one cycle when their horizons agree to this.
SAME_HORIZON_TOL = 1e-12

# Times max(T, 1): clamped-dispatch knots closer than this are one knot.
CLAMPED_KNOT_TOL = 1e-14

# Times max(T, 1): rearranged load-duration points closer than this are one
# point.
DURATION_KNOT_TOL = 1e-15
