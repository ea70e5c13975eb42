"""Relative root combinatorics and a finite Chevalley-group engine over Z/m,
with exhaustive desk-scale verification of the sandwich normal structure."""

from .rootsys import RootSystem, RootSystemType, build_root_system
from .relroots import RelativeDatum, RelativeRootSystem, build_relative, fold
from .rings import divisors, jacobson_radical
from .models import GroupModel, gauss_cell_membership, hypothesis_check
from .table import ElementTable
from .lattice import GroupContext, Subgroup, get_context, sandwich_classify

__version__ = "0.1.0"

__all__ = [
    "RootSystem",
    "RootSystemType",
    "build_root_system",
    "RelativeDatum",
    "RelativeRootSystem",
    "build_relative",
    "fold",
    "divisors",
    "jacobson_radical",
    "GroupModel",
    "gauss_cell_membership",
    "hypothesis_check",
    "ElementTable",
    "GroupContext",
    "Subgroup",
    "get_context",
    "sandwich_classify",
    "__version__",
]
