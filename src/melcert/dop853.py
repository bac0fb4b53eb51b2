"""Scalar Dormand-Prince 8(5,3) integration in pure Python.

The embedded pair of Hairer, Norsett & Wanner, Solving Ordinary
Differential Equations I, section II.10: 12 stages, an 8th-order solution,
and an error estimate that blends the 5th- and 3rd-order ones.  The
derivative at the end of a step starts the next one (FSAL), so a step costs
12 evaluations.  The step-size control follows the same reference.

One step is `_step`, generated from the tableau below at import and
compiled once with no builtins: its stage calls and sums are straight-line
code over the tableau's doubles, and each sum adds its terms left to right
from 0.0.

`flow` imports this module on its first section return, and only the
verify command imports `flow`, so the exact commands never load either.
"""

from __future__ import annotations

import math

# First trial step; the controller grows or shrinks it from there.
FIRST_STEP = 0.25

# The nodes of stages 1..11, the stage rows, and the stage weights of the
# 8th-order solution and of the 5th-order error estimate.
_NODES = (
    0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510,
    0.281649658092772603273242802490,
    0.333333333333333333333333333333,
    0.25,
    0.307692307692307692307692307692,
    0.651282051282051282051282051282,
    0.6,
    0.857142857142857142857142857142,
    1.0,
)
_STAGES = (
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (
        2.95875854768068491816892993775e-2,
        0.0,
        8.87627564304205475450678981324e-2,
    ),
    (
        2.41365134159266685502369798665e-1,
        0.0,
        -8.84549479328286085344864962717e-1,
        9.24834003261792003115737966543e-1,
    ),
    (
        3.7037037037037037037037037037e-2,
        0.0,
        0.0,
        1.70828608729473871279604482173e-1,
        1.25467687566822425016691814123e-1,
    ),
    (
        3.7109375e-2,
        0.0,
        0.0,
        1.70252211019544039314978060272e-1,
        6.02165389804559606850219397283e-2,
        -1.7578125e-2,
    ),
    (
        3.70920001185047927108779319836e-2,
        0.0,
        0.0,
        1.70383925712239993810214054705e-1,
        1.07262030446373284651809199168e-1,
        -1.53194377486244017527936158236e-2,
        8.27378916381402288758473766002e-3,
    ),
    (
        6.24110958716075717114429577812e-1,
        0.0,
        0.0,
        -3.36089262944694129406857109825,
        -8.68219346841726006818189891453e-1,
        2.75920996994467083049415600797e1,
        2.01540675504778934086186788979e1,
        -4.34898841810699588477366255144e1,
    ),
    (
        4.77662536438264365890433908527e-1,
        0.0,
        0.0,
        -2.48811461997166764192642586468,
        -5.90290826836842996371446475743e-1,
        2.12300514481811942347288949897e1,
        1.52792336328824235832596922938e1,
        -3.32882109689848629194453265587e1,
        -2.03312017085086261358222928593e-2,
    ),
    (
        -9.3714243008598732571704021658e-1,
        0.0,
        0.0,
        5.18637242884406370830023853209,
        1.09143734899672957818500254654,
        -8.14978701074692612513997267357,
        -1.85200656599969598641566180701e1,
        2.27394870993505042818970056734e1,
        2.49360555267965238987089396762,
        -3.0467644718982195003823669022,
    ),
    (
        2.27331014751653820792359768449,
        0.0,
        0.0,
        -1.05344954667372501984066689879e1,
        -2.00087205822486249909675718444,
        -1.79589318631187989172765950534e1,
        2.79488845294199600508499808837e1,
        -2.85899827713502369474065508674,
        -8.87285693353062954433549289258,
        1.23605671757943030647266201528e1,
        6.43392746015763530355970484046e-1,
    ),
)
_WEIGHTS = (
    5.42937341165687622380535766363e-2,
    0.0,
    0.0,
    0.0,
    0.0,
    4.45031289275240888144113950566,
    1.89151789931450038304281599044,
    -5.8012039600105847814672114227,
    3.1116436695781989440891606237e-1,
    -1.52160949662516078556178806805e-1,
    2.01365400804030348374776537501e-1,
    4.47106157277725905176885569043e-2,
)
_ERROR5 = (
    0.1312004499419488073250102996e-1,
    0.0,
    0.0,
    0.0,
    0.0,
    -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952,
    0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290,
    0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1,
    -0.2235530786388629525884427845e-1,
)
# the 3rd-order error estimate: the 8th-order weights less those of the
# embedded 3rd-order solution, which uses only stages 0, 8 and 11
_THIRD_ORDER = {
    0: 0.244094488188976377952755905512,
    8: 0.733846688281611857341361741547,
    11: 0.220588235294117647058823529412e-1,
}
_ERROR3 = tuple(b - _THIRD_ORDER.get(j, 0.0) for j, b in enumerate(_WEIGHTS))
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0


def _terms(row: tuple) -> tuple:
    """The nonzero (index, coefficient) pairs of a tableau row."""
    return tuple((j, c) for j, c in enumerate(row) if c)


def _sum_source(row: tuple) -> str:
    """Source of the sum of c * k_j over the row's nonzero terms, added left
    to right from 0.0 in plain float arithmetic (the builtin `sum` of floats
    is compensated from Python 3.12 on, which would make the steps depend on
    the interpreter)."""
    return " + ".join(["0.0"] + [f"{c!r}*k{j}" for j, c in _terms(row)])


def _step_source() -> str:
    """Source of `_step(fun, t, y, f, h, t_new)`: the 12 stages of one step
    from (t, y) with f = fun(t, y), straight-line, returning the 8th-order
    solution at t_new = t + h, the derivative there, and the 5th- and
    3rd-order error sums."""
    lines = ["def _step(fun, t, y, f, h, t_new):", "    k0 = f"]
    for i, (node, row) in enumerate(zip(_NODES, _STAGES), start=1):
        lines.append(f"    k{i} = fun(t + {node!r}*h, y + h*({_sum_source(row)}))")
    lines += [
        f"    y_new = y + h*({_sum_source(_WEIGHTS)})",
        "    f_new = fun(t_new, y_new)",
        f"    return y_new, f_new, {_sum_source(_ERROR5)}, {_sum_source(_ERROR3)}",
    ]
    return "\n".join(lines) + "\n"


_namespace = {"__builtins__": {}}
exec(compile(_step_source(), "<dop853 step>", "exec"), _namespace)
_step = _namespace.pop("_step")
del _namespace


def integrate(fun, t: float, t_end: float, atol: float, rtol: float, error: type) -> float:
    """Integrate the scalar y' = fun(t, y) from y(t) = 0 to t_end > t.

    Each accepted step keeps the local error estimate below
    atol + rtol*|y|.  `fun` raises `error` at a point outside its domain;
    that rejects the step like an infinite error estimate.  Once rejections
    bring the step below 10 ulp of t, or 1 ulp of t_end if more (near t =
    0), the last such exception, or else a new `error`, is raised, so the
    loop ends on any input.  The new error names the floor that tripped:
    below 10 ulp of t the solution likely has a singularity or a vertical
    tangent at t; the floor of 1 ulp of t_end names no cause, since steps
    near t = 0 also shrink from the round-off of huge stage values.
    """
    y, f = 0.0, fun(t, 0.0)
    step = min(t_end - t, FIRST_STEP)
    rejected, stop = False, None
    while t < t_end:
        last = step >= t_end - t
        h = t_end - t if last else step
        t_new = t_end if last else t + h
        try:
            y_new, f_new, err5, err3 = _step(fun, t, y, f, h, t_new)
        except error as exc:
            stop, estimate = exc, math.inf
        else:
            scale = atol + rtol * max(abs(y), abs(y_new))
            if err5 == 0.0:
                estimate = 0.0
            elif scale == 0.0:
                estimate = math.inf
            else:
                denominator = scale * math.sqrt(err5 * err5 + 0.01 * err3 * err3)
                if denominator:
                    estimate = h * err5 * err5 / denominator
                else:  # it underflowed: the same ratio, without the squares
                    estimate = h * abs(err5) / scale * (abs(err5) / math.hypot(err5, 0.1 * err3))
        if estimate < 1.0:
            t, y, f = t_new, y_new, f_new
            factor = min(_MAX_FACTOR, _SAFETY * estimate**-0.125) if estimate else _MAX_FACTOR
            step = h * (min(1.0, factor) if rejected else factor)
            rejected, stop = False, None
        else:
            step = h * max(_MIN_FACTOR, _SAFETY * estimate**-0.125)
            rejected = True
            if step < max(10 * math.ulp(t), math.ulp(t_end)):
                raise stop or error(
                    f"step size fell below 1 ulp of t_end={t_end} at t={t:.6f}"
                    if math.ulp(t_end) > 10 * math.ulp(t)
                    else f"step size fell below 10 ulp at {t:.6f}: the solution has a "
                    "singularity or a vertical tangent there"
                )
    return y
