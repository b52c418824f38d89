"""Clifford algebra kernel on bitmask blades.

Basis blades are unsigned 64-bit masks (bit k-1 set means generator
e_k is a factor) and the geometric product is XOR of masks times a
computed sign, the twist.  The package provides four independent
implementations of the sign, exact rational multivectors, symbolic
twist tables with a block-substitution generator, and a CLI.

Only the tables and the self-test need numpy.  Their names are
resolved on first access, so ``import cltwist`` and the sign,
notation and multivector layers run without loading numpy.
"""

from importlib import import_module

from .kernel import (
    ALGORITHMS,
    MAX_DIM,
    TraceStep,
    blade_product,
    grade,
    grade_sign,
    tree_trace,
    twist,
    twist_closed,
    twist_oracle,
    twist_recursive,
    twist_tree,
)
from .multivector import Algebra, Multivector
from .notation import (
    ExpressionSyntaxError,
    MalformedBladeError,
    NotationError,
    UnrepresentableError,
    format_blade,
    parse_blade,
    parse_expression,
)

#: Public names loaded on first access, by the submodule defining them.
_LAZY = {
    "SymbolicSign": "tables",
    "TwistTable": "tables",
    "render_block_letters": "tables",
    "render_table": "tables",
    "table_blocks": "tables",
    "table_direct": "tables",
    "twist_symbolic": "tables",
    "run_selftest": "selftest",
}

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "Algebra",
    "ExpressionSyntaxError",
    "MAX_DIM",
    "MalformedBladeError",
    "Multivector",
    "NotationError",
    "SymbolicSign",
    "TraceStep",
    "TwistTable",
    "UnrepresentableError",
    "blade_product",
    "format_blade",
    "grade",
    "grade_sign",
    "parse_blade",
    "parse_expression",
    "render_block_letters",
    "render_table",
    "run_selftest",
    "table_blocks",
    "table_direct",
    "tree_trace",
    "twist",
    "twist_closed",
    "twist_oracle",
    "twist_recursive",
    "twist_symbolic",
    "twist_tree",
    "__version__",
]


def __getattr__(name):
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(globals().keys() | _LAZY.keys())
