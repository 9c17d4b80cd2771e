"""Symbol management with concrete default bindings.

Mirrors the paper's ``global_symbol_manager`` (Figure 9): symbols are
declared together with representative concrete values so a symbolic
model can always be "concretized" for sanity checks, while analysis
runs on the symbolic form.

Example::

    from repro.symbolic import SymbolManager

    gsm = SymbolManager()
    b, s, h = gsm.symbols("b s h", (4, 2048, 4096), integer=True)
    expr = 2 * b * s * h
    gsm.concretize(expr)   # -> 67108864
"""

from __future__ import annotations

from typing import Mapping, Sequence, Union

from .expr import Expr, Number, Sym, free_symbols, substitute

__all__ = ["SymbolManager", "global_symbol_manager"]


class SymbolManager:
    """Creates named symbols and tracks their concrete default values."""

    def __init__(self) -> None:
        self._symbols: dict[str, Sym] = {}
        self._defaults: dict[str, Number] = {}

    def symbol(self, name: str, default: Number | None = None, *,
               integer: bool = False) -> Sym:
        """Create (or retrieve) a symbol, optionally with a default value."""
        if name in self._symbols:
            sym = self._symbols[name]
            if sym.integer != integer:
                raise ValueError(
                    f"symbol {name!r} already exists with integer={sym.integer}"
                )
        else:
            sym = Sym(name, integer=integer)
            self._symbols[name] = sym
        if default is not None:
            self._defaults[name] = default
        return sym

    def symbols(self, names: Union[str, Sequence[str]],
                defaults: Sequence[Number] | None = None, *,
                integer: bool = False) -> tuple[Sym, ...]:
        """Create several symbols at once, e.g. ``symbols("b s h", (4, 128, 12))``."""
        if isinstance(names, str):
            names = names.split()
        if defaults is not None and len(defaults) != len(names):
            raise ValueError(
                f"{len(names)} names but {len(defaults)} default values"
            )
        out = []
        for i, name in enumerate(names):
            default = defaults[i] if defaults is not None else None
            out.append(self.symbol(name, default, integer=integer))
        return tuple(out)

    def concretize(self, expr: Expr,
                   overrides: Mapping[str, Number] | None = None) -> Number:
        """Substitute default (plus override) values; expect a constant result."""
        env = dict(self._defaults)
        if overrides:
            env.update(overrides)
        needed = free_symbols(expr)
        missing = sorted(needed - env.keys())
        if missing:
            raise ValueError(f"no concrete value for symbols: {missing}")
        result = substitute(expr, {name: env[name] for name in needed})
        return result.constant_value()


#: Process-wide manager used by examples and the high-level API, mirroring
#: ``from mist import global_symbol_manager as gsm`` in the paper.
global_symbol_manager = SymbolManager()
