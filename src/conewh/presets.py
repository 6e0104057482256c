"""Named cones and symbols used by the CLI and the acceptance experiments.

Symbol presets carry oracle metadata where a closed form exists: the
expected winding under the frozen curve orientation, computed independently
from the upper-half-plane zero/pole counts of the rational symbol (winding
= poles_upper - zeros_upper for the xi-decreasing traversal).

`make_symbol` is imported inside the symbol builders: `cone_preset` serves
`pklimit` and `trivialize`, which never sample a symbol and so need not load
wiener_hopf.  numpy is imported inside the kernels and the expression
evaluator, so that `preset_spec` serves the exact commands without it.
"""

import ast
import json
import math
import operator
from functools import partial
from importlib import resources

from .cones import PolyhedralCone
from .errors import ConfigError
from .io import REQUIRED, _count, _string, read_cone_spec, read_fields

_EXP_CLIP = 60.0  # arguments beyond this give exp underflow warnings only


def _exp_pos(x):
    import numpy as np

    return np.where(x > 0, np.exp(-np.minimum(np.abs(x), _EXP_CLIP)), 0.0)


def _exp_neg(x):
    import numpy as np

    return np.where(x < 0, np.exp(-np.minimum(np.abs(x), _EXP_CLIP)), 0.0)


def _gauss(x):
    import numpy as np

    return np.exp(-np.pi * x**2)


# -- packaged specs and cones ------------------------------------------------

def preset_spec(kind, name):
    """The JSON object of presets/<kind>/<name>.json; kind is "cones" or "experiments"."""
    specs = resources.files("conewh").joinpath("presets", kind)
    names = sorted(ref.name.removesuffix(".json") for ref in specs.iterdir())
    if name not in names:
        raise ConfigError(f"no spec file or {kind[:-1]} preset named '{name}' "
                          f"(presets: {', '.join(names)})")
    return json.loads(specs.joinpath(f"{name}.json").read_text())


def cone_preset(name: str) -> PolyhedralCone:
    """The cone of the packaged spec presets/cones/<name>.json."""
    return read_cone_spec(preset_spec("cones", name))[1]


# -- 1-D symbols --------------------------------------------------------------
# Blaschke building blocks: b(xi) = (2 pi i xi - 1)/(2 pi i xi + 1) has the
# kernel -2 e^{-x} 1_{x>0}; its conjugate reciprocal has the mirrored kernel.
# Jump kernels are sampled with the midpoint value at x = 0.


def _blaschke_minus(x):  # symbol b: winding +1 under the frozen orientation
    import numpy as np

    return np.where(x == 0, -1.0, -2.0 * _exp_pos(x))


def _blaschke_plus(x):   # symbol 1/b: winding -1
    import numpy as np

    return np.where(x == 0, -1.0, -2.0 * _exp_neg(x))


def _blaschke_minus_sq(x):  # b^2: winding +2, kernel 4 e^{-x}(x-1) 1_{x>0}
    import numpy as np

    return np.where(x == 0, -2.0, 4.0 * _exp_pos(x) * (x - 1.0))


def _blaschke_plus_sq(x):   # 1/b^2: winding -2, kernel 4 e^{x}(-x-1) 1_{x<0}
    import numpy as np

    return np.where(x == 0, -2.0, 4.0 * _exp_neg(x) * (-x - 1.0))


def _zero(x):
    import numpy as np

    return np.zeros_like(x, dtype=float)


_SYMBOLS_1D = {
    # name: (callable, expected winding or None, description)
    "zero": (_zero, 0, "identity operator"),
    "rational-w-1": (_blaschke_plus, -1, "(2 pi i xi+1)/(2 pi i xi-1)"),
    "rational-w+1": (_blaschke_minus, +1, "(2 pi i xi-1)/(2 pi i xi+1)"),
    "rational-w-2": (_blaschke_plus_sq, -2, "((2 pi i xi+1)/(2 pi i xi-1))^2"),
    "rational-w+2": (_blaschke_minus_sq, +2, "((2 pi i xi-1)/(2 pi i xi+1))^2"),
    "gauss-small": (lambda x: 0.3 * _gauss(x), 0, "0.3 exp(-pi x^2)"),
    "gauss-neg": (lambda x: -0.4 * _gauss(x), 0, "-0.4 exp(-pi x^2)"),
    "singular-zero": (lambda x: -_gauss(x), None, "symbol vanishing at xi=0"),
}

# upper-half-plane (zeros, poles) counts of 1 + fhat, for the winding oracle
RATIONAL_ZERO_POLE = {
    "rational-w-1": (1, 0),
    "rational-w+1": (0, 1),
    "rational-w-2": (2, 0),
    "rational-w+2": (0, 2),
    "zero": (0, 0),
}


# -- 2-D symbols --------------------------------------------------------------


def _gauss2(x, y):
    import numpy as np

    return np.exp(-np.pi * (x**2 + y**2))


def _separable_singular(x, y):
    # singular 1-D factor (symbol hits -1 at xi = 0) times a unit-mass factor
    return -_gauss(x) * _gauss(y)


_SYMBOLS_2D = {
    "gauss2d": (_gauss2, "exp(-pi |x|^2)"),
    "gauss2d-small": (lambda x, y: 0.3 * _gauss2(x, y), "0.3 exp(-pi |x|^2)"),
    "separable-singular-face": (_separable_singular,
                                "modulated Gaussian with a singular e1-face symbol"),
}


def symbol_preset(name, h, T):
    """The SymbolGrid of a named 1-D or 2-D kernel preset."""
    from .wiener_hopf import make_symbol

    if name in _SYMBOLS_1D:
        f, winding, desc = _SYMBOLS_1D[name]
        sym = make_symbol(f, 1, h, T, name=name)
        sym.meta.update({"expected_winding": winding, "description": desc})
        return sym
    if name in _SYMBOLS_2D:
        f, desc = _SYMBOLS_2D[name]
        sym = make_symbol(f, 2, h, T, name=name)
        sym.meta["description"] = desc
        return sym
    raise ConfigError(
        f"unknown symbol preset '{name}' "
        f"(have {sorted(_SYMBOLS_1D) + sorted(_SYMBOLS_2D)})")


# The names an expression may use besides its variables, each numpy's.
_FUNCTIONS = ("exp", "cos", "sin", "sqrt", "abs", "where")
_NAMES = _FUNCTIONS + ("pi", "e")
_NODES = (ast.Expression, ast.BinOp, ast.UnaryOp, ast.Compare, ast.Load,
          ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod, ast.Pow,
          ast.UAdd, ast.USub, ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def _check_expression(expr, variables):
    """The compiled expression, if it holds only names (the variables and
    _NAMES), numeric literals, arithmetic, unary and comparison operators, and
    positional calls to the listed functions."""
    try:
        tree = ast.parse(expr, mode="eval")
    except (SyntaxError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad symbol expression: {exc}") from None
    for node in ast.walk(tree):
        if not (isinstance(node, _NODES)
                or isinstance(node, ast.Name) and (node.id in _NAMES or node.id in variables)
                or isinstance(node, ast.Constant) and type(node.value) in (int, float, complex)
                or isinstance(node, ast.Call) and not node.keywords
                and isinstance(node.func, ast.Name) and node.func.id in _FUNCTIONS):
            what = ast.unparse(node) or type(node).__name__   # operators unparse to ''
            raise ConfigError(f"bad symbol expression: '{what}' is not allowed (names, "
                              "numbers, arithmetic, comparisons and calls to "
                              f"{', '.join(_FUNCTIONS)} only)")
    _int_constant(tree)
    return compile(tree, "<symbol expression>", "eval")


_INT_OPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
            ast.FloorDiv: operator.floordiv, ast.Mod: operator.mod, ast.Pow: operator.pow}


def _int_constant(node):
    """The value of an integer constant subtree, None for any other subtree.

    Python evaluates integer powers exactly, so 10**10**10 would ask for an
    integer of 10**10 digits.  Each constant integer power is bounded from its
    operands before it is computed; one above 2**1024, beyond every float,
    is rejected.
    """
    values = [_int_constant(child) for child in ast.iter_child_nodes(node)]
    if isinstance(node, ast.Constant):
        return node.value if type(node.value) is int else None
    if isinstance(node, ast.UnaryOp) and values[-1] is not None:
        return -values[-1] if isinstance(node.op, ast.USub) else values[-1]
    if not isinstance(node, ast.BinOp) or type(node.op) not in _INT_OPS:
        return None
    a, b = values[0], values[-1]                        # children: left, op, right
    if a is None or b is None:
        return None
    if isinstance(node.op, ast.Pow) and b < 0:
        return None                                     # a float
    # b against a float, not b * log2|a|: an int compares with a float exactly,
    # and a product above ~1.8e308 would raise OverflowError.
    if isinstance(node.op, ast.Pow) and abs(a) > 1 and b > 1024 / math.log2(abs(a)):
        raise ConfigError(f"bad symbol expression: constant power '{ast.unparse(node)}' "
                          "exceeds 2**1024")
    try:
        return _INT_OPS[type(node.op)](a, b)
    except ZeroDivisionError:
        return None


def symbol_from_expression(expr, dim, h, T, name="expr"):
    """The SymbolGrid of a kernel given as an expression string in x (and y
    for dim 2).

    The expression may use only x (and y), numeric literals, the constants
    pi and e, arithmetic, unary and comparison operators, and calls to exp,
    cos, sin, sqrt, abs and where; it is evaluated with numpy.
    """
    from .wiener_hopf import make_symbol

    import numpy as np

    variables = ("x", "y")[:dim]
    code = _check_expression(expr, variables)
    names = {name: getattr(np, name) for name in _NAMES}

    def f(*coords):
        try:
            # A NaN or inf sample is reported by make_symbol, not as a warning.
            with np.errstate(all="ignore"):
                return eval(code, {"__builtins__": {}},  # noqa: S307 - checked tree
                            {**names, **dict(zip(variables, coords))})
        except Exception as exc:
            raise ConfigError(f"bad symbol expression: {exc}")

    return make_symbol(f, dim, h, T, name=name)


SYMBOL_KEYS = {"expr": (_string, REQUIRED), "dim": (partial(_count, most=2), 1),
               "name": (_string, "expr")}


def symbol_dim(spec):
    """The kernel dimension of a preset name or a symbol object of SYMBOL_KEYS,
    read before any sample is taken."""
    if isinstance(spec, str):
        return 2 if spec in _SYMBOLS_2D else 1      # symbol_preset rejects other names
    return read_fields(spec, SYMBOL_KEYS, "symbol")["dim"]


def resolve_symbol(spec, h, T):
    """The SymbolGrid of a preset name or a symbol object of SYMBOL_KEYS."""
    if isinstance(spec, str):
        return symbol_preset(spec, h, T)
    expr, dim, name = read_fields(spec, SYMBOL_KEYS, "symbol").values()
    return symbol_from_expression(expr, dim, h, T, name=name)
