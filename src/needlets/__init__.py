"""Needlet tight frames over SVD bases, thresholding estimators, and a simulation harness.

The package exports each module's __all__ and nothing else.
"""

from .errors import *
from .estimators import *
from .filters import *
from .frame import *
from .frameio import *
from .jacobi import *
from .losses import *
from .models import *
from .simlab import *
from .targets import *

__version__ = "0.1.0"
