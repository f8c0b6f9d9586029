"""Degree-sequence conditions for graph toughness.

Library surface: degree sequences and majorization, Chvatal-type
condition algebra with the blocking/frontier duality, forcibly-P
checkers with constructive witnesses, exact small-graph oracles,
integer partitions, and the sink-enumeration machinery that lower
bounds best monotone 1/k-tough theorems.  The package republishes
each library module's ``__all__``.
"""

from .sequences import *
from .conditions import *
from .graphs import *
from .partitions import *
from .checkers import *
from .subposet import *

__version__ = "0.1.0"
