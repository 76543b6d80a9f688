"""Hyperparameter defaults, mirroring the reference's ``parameters.py``.

Every constant here reproduces a value from
``/root/reference/parameters.py`` (file:line cited per constant) so the
new engine's transform semantics match the reference's. All distances
are meters.
"""

# reference parameters.py:30
DEFAULT_CURVE_RADIUS = 3.0
# reference parameters.py:33-35
MIN_D_TO_BUILDING = 1.0
# reference parameters.py:45
MINIMAL_BUFFER = 3.0
# reference parameters.py:48
D_TO_ADD_INTERP_D = 2.0
# reference parameters.py:51
PERC_DRAW_KERBS = 30.0
# reference parameters.py:54
PERC_TOL_CROSSINGS = 25.0
# reference parameters.py:57
PERC_TO_INTERPOLATE = 0.4
# reference parameters.py:60
D_TO_ADD_TO_EACH_SIDE = 1.0

# reference parameters.py:67-105 — per-highway-class default widths (m);
# 0 means "ignore this class" (dropped by the width filter, M3).
DEFAULT_WIDTHS = {
    "motorway": 22.0,
    "trunk": 18.0,
    "primary": 12.0,
    "residential": 6.0,
    "secondary": 10.0,
    "tertiary": 8.0,
    "unclassified": 4.0,
    "road": 6.0,
    "living_street": 0.0,
    "trunk_link": 0.0,
    "motorway_link": 0.0,
    "secondary_link": 0.0,
    "tertiary_link": 0.0,
    "primary_link": 0.0,
    "sidewalk": 0.0,
    "crossing": 0.0,
    "path": 0.0,
    "service": 0.0,
    "pedestrian": 0.0,
    "escape": 0.0,
    "raceway": 0.0,
    "cycleway": 0.0,
    "proposed": 0.0,
    "construction": 0.0,
    "platform": 0.0,
    "services": 0.0,
    "footway": 0.0,
    "track": 0.0,
    "corridor": 0.0,
    "steps": 0.0,
    "street_lamp": 0.0,
}

# reference parameters.py:108
FALLBACK_DEFAULT_WIDTH = 6.0
# reference parameters.py:111
MAX_SIDEWALK_WIDTH_METERS = 25.0
# reference parameters.py:143
PROTOBLOCKS_BUFFER = 0.5
# reference parameters.py:146
TINY_SEGMENTS_TOL = 0.1
# reference parameters.py:149
MIN_AREA_PERIMETER_RATIO = 0.02
# reference parameters.py:152-154
INCREMENT_INWARD = 0.5
MAX_CROSSINGS_ITERATIONS = 20
# reference parameters.py:157
KNN_MAX_DIST = 50.0
# reference parameters.py:160
CUTOFF_PERCENT_PROTOBLOCK = 40.0
# reference parameters.py:163
DUPLICATE_POINTS_TOL = 0.1
# reference parameters.py:169
MIN_STRETCH_SIZE = 7.0
# reference parameters.py:172
ABS_MAX_CROSSING_LEN = 100.0

# widths below this are dropped by the class/width filter
# (reference osm_sidewalkreator.py:697-718, generic_functions.py:1790s)
MIN_VALID_WIDTH = 0.5
