"""IMP001 fixture: a package __init__ that re-exports eagerly."""
import numpy as np
from . import queue
from .queue import FifoQueue
import repro.sim.engine
from repro.core import RliSender
try:
    from ..obs import trace
except ImportError:
    trace = None
from .._exports import lazy_exports
