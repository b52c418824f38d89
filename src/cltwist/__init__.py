"""Clifford algebra kernel on bitmask blades.

Basis blades are unsigned 64-bit masks (bit k-1 set means generator
e_k is a factor) and the geometric product is XOR of masks times a
computed sign, the twist.  The package provides four independent
implementations of the sign, exact rational multivectors, symbolic
twist tables with a block-substitution generator, and a CLI.

``import cltwist`` loads only the kernel and binds its public names,
``kernel.__all__``.  Every other public name is resolved on first
access, through ``_LAZY``: ``Algebra`` and ``Multivector`` load the
multivector layer, the notation names (and ``fractions``) the notation
layer, the table names the tables (and numpy), and ``run_selftest``
the self-test, which works on bit planes, Python ints.  So every
layer but the tables runs without numpy, and a program that only
computes signs compiles nothing else.
"""

from importlib import import_module

from . import kernel
from .kernel import *  # noqa: F403  the kernel publishes its own names

#: Public names loaded on first access, by the submodule defining them.
_LAZY = {
    "Algebra": "multivector",
    "Multivector": "multivector",
    "ExpressionSyntaxError": "notation",
    "MalformedBladeError": "notation",
    "NotationError": "notation",
    "UnrepresentableError": "notation",
    "format_blade": "notation",
    "parse_blade": "notation",
    "parse_expression": "notation",
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

#: Every public name, each written once: in ``kernel.__all__`` or ``_LAZY``.
__all__ = sorted([*kernel.__all__, *_LAZY]) + ["__version__"]


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
