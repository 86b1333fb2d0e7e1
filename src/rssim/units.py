"""dB / dBm conversions.

All internal computation uses linear units (powers in mW, channel gains as
dimensionless linear factors).  dB-valued quantities only appear at the
configuration boundary.
"""

import numpy as np


def dbm_to_mw(x_dbm):
    """Convert dBm to linear mW."""
    return 10.0 ** (np.asarray(x_dbm, dtype=float) / 10.0)


def db_to_linear(x_db):
    """Convert a dB gain to a linear factor."""
    return 10.0 ** (np.asarray(x_db, dtype=float) / 10.0)
