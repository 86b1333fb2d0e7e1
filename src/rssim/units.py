"""dB / dBm conversions.

All internal computation uses linear units (powers in mW, channel gains as
dimensionless linear factors).  dB-valued quantities only appear at the
configuration boundary.
"""

import numpy as np


def db_to_linear(x_db):
    """Convert dB to a linear factor; a power in dBm, which is dB relative
    to 1 mW, converts to mW."""
    return 10.0 ** (np.asarray(x_db, dtype=float) / 10.0)
