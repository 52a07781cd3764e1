"""The emitted Verilog, read back and run without a Verilog simulator.

``read`` parses a design's ``_top.v`` and ``_params.v`` texts into a
``Design``: an ``archsim.Rtl``, the storage's word table, the FSM's case arms
and the register loads of the start arm. It strips every comment first, so
it reads only what synthesis reads: the declarations, ``localparam M``, the
``bias_init`` shift, the counter's limit, the reset and start arms, the case
arms and the storage case. ``run`` steps a parsed design by the testbench's
protocol: a start clock with the input codes on ``x_bus``, then a cycle
budget of clocks. The datapath it steps is the emitted template's (select a
word by {state, counter}, load the shifted bias or add one product, wrap to
the accumulator's declared width, branch on its sign at the counter's limit),
with every width, literal and arm taken from the text.
"""

import re
from dataclasses import dataclass

from helpers import wrap
from seqsvm.archsim import Rtl

_DECLARATION = re.compile(r"^\s*(?:input|output)?\s*(?:wire|reg)\s+(?:signed\s+)?\[(\d+):0\]\s+(\w+)", re.M)
_ASSIGNMENT = re.compile(r"(\w+)\s*<=\s*([^;]+);")
_ACTIONS = {"node": re.compile(r"state <= (\S+);"), "leaf": re.compile(r"begin done <= 1'b1; class_out <= (\S+); end")}
_ARM = re.compile(r"(\S+): begin\s*\n\s*if \(y\) ([^\n]*?)\s*\n\s*else\s+([^\n]*?)\s*\n\s*end\n")


@dataclass(frozen=True)
class Design:
    rtl: Rtl
    n_features: int  # localparam M
    limit: int       # the counter value at which an evaluation ends
    words: list      # words[row][col], from the storage case
    default: int     # the storage's default word
    arms: dict       # state: (on y=1, on y=0), each ("node", state) or ("leaf", class)
    fallback: tuple  # the FSM's default arm
    restart: dict    # register: value, as the start arm loads them


def literal(text: str, width: int) -> int:
    """The value of the sized decimal or binary literal ``text``, which must be ``width`` bits wide."""
    match = re.fullmatch(r"(-?)(\d+)'s?([db])([01]+|\d+)", text.strip())
    if not match:
        raise ValueError(f"{text!r} is not a sized literal")
    sign, bits, base, digits = match.groups()
    if int(bits) != width:
        raise ValueError(f"literal {text} is not {width} bits wide")
    value = int(digits, 10 if base == "d" else 2)
    return -value if sign else value


def _between(text: str, start: str, end: str) -> str:
    _, found, rest = text.partition(start)
    body, found_end, _ = rest.partition(end)
    if not (found and found_end):
        raise ValueError(f"no {start!r} ... {end!r} block")
    return body


def _search(pattern: str, text: str) -> str:
    match = re.search(pattern, text)
    if not match:
        raise ValueError(f"no match for {pattern!r}")
    return match.group(1)


def _declared(text: str) -> dict:
    widths = {}
    for msb, name in _DECLARATION.findall(text):
        if name in widths:
            raise ValueError(f"{name} is declared twice")
        widths[name] = int(msb) + 1
    return widths


def _loads(block: str, widths: dict) -> dict:
    """The register loads of a reset or start arm, each literal checked against its register's width."""
    return {name: literal(value, widths.get(name, 1)) for name, value in _ASSIGNMENT.findall(block)}


def _action(text: str, widths: dict) -> tuple:
    for kind, pattern in _ACTIONS.items():
        match = pattern.fullmatch(text)
        if match:
            return kind, literal(match.group(1), widths["state" if kind == "node" else "class_out"])
    raise ValueError(f"unknown FSM action {text!r}")


def _read_params(params: str) -> tuple:
    widths = _declared(params)
    col_bits, key_bits, word_bits = widths["col"], widths["row"] + widths["col"], widths["word"]
    table = {}
    for key, value in re.findall(r"^\s*(\S+): word = (\S+);", params, re.M):
        at = "default" if key == "default" else divmod(literal(key, key_bits), 1 << col_bits)
        table[at] = literal(value, word_bits)
    default = table.pop("default")
    rows, cols = max(table)[0] + 1, max(col for _, col in table) + 1
    if len(table) != rows * cols:
        raise ValueError(f"the storage case covers {len(table)} of {rows} x {cols} words")
    return widths, [[table[row, col] for col in range(cols)] for row in range(rows)], default


def _evaluations(arms: dict, state: int) -> int:
    """Evaluations from ``state`` to the furthest leaf."""
    depth, frontier = 0, {state}
    while frontier:
        depth += 1
        if depth > len(arms):
            raise ValueError("the FSM has a cycle")
        frontier = {target for s in frontier for kind, target in arms.get(s, ()) if kind == "node"}
    return depth


def read(top: str, params: str) -> Design:
    """The design of an emitted ``_top.v`` and ``_params.v``, comments stripped."""
    top, params = (re.sub(r"//[^\n]*", "", text) for text in (top, params))
    widths = _declared(top)
    param_widths, words, default = _read_params(params)
    for name, port in (("state", "row"), ("counter", "col"), ("word", "word")):
        if param_widths[port] != widths[name]:
            raise ValueError(f"storage {port} is {param_widths[port]} bits, the top's {name} {widths[name]}")
    reset = _loads(_between(top, "if (rst) begin", "end else if (start) begin"), widths)
    restart = {**reset, **_loads(_between(top, "end else if (start) begin", "end else if (running"), widths)}
    zeros = _search(r"bias_init = \$signed\(\{word, (\S+)\}\);", top)
    shift = int(zeros.partition("'")[0])
    if literal(zeros, shift) != 0:
        raise ValueError(f"the bias is shifted in by {zeros}, not by zeros")
    limit = literal(_search(r"if \(counter != (\S+)\) begin", top), widths["counter"])
    body = _between(top, "case (state)", "endcase")
    arms = {}
    for state, on_a, on_b in _ARM.findall(body):
        arms[literal(state, widths["state"])] = (_action(on_a, widths), _action(on_b, widths))
    fallback = _action(_search(r"^default: (.*)$", _ARM.sub("", body).strip()), widths)
    rtl = Rtl(
        input_bits=widths["x_cur"],
        word_bits=widths["word"],
        acc_bits=widths["acc"],
        counter_bits=widths["counter"],
        state_bits=widths["state"],
        class_bits=widths["class_out"],
        bias_shift=shift,
        initial_state=reset["state"],
        cycles=_evaluations(arms, restart["state"]) * (limit + 1),
        register_bits=widths["acc"] + widths["counter"] + widths["state"],
    )
    n_features = int(_search(r"localparam integer M = (\d+);", top))
    if widths["x_bus"] != n_features * widths["x_cur"]:
        raise ValueError(f"x_bus is {widths['x_bus']} bits, not M = {n_features} codes of {widths['x_cur']}")
    return Design(rtl, n_features, limit, words, default, arms, fallback, restart)


def run(design: Design, codes, budget: int) -> tuple:
    """(class_out, state, done's clock) after the start clock and ``budget``
    clocks with ``codes`` on x_bus; done's clock is the clock after start on
    which done rose, or None."""
    r = design.rtl
    bus = sum(int(code) << (i * r.input_bits) for i, code in enumerate(codes))
    regs = dict(design.restart)
    rose = None
    for clock in range(1, budget + 1):
        if not regs["running"] or regs["done"]:
            continue
        state, counter = regs["state"], regs["counter"]
        inside = state < len(design.words) and counter < len(design.words[0])
        word = design.words[state][counter] if inside else design.default
        x = (bus >> (max(counter - 1, 0) * r.input_bits)) & ((1 << r.input_bits) - 1)
        sum_ = word << r.bias_shift if counter == 0 else regs["acc"] + word * x
        regs["acc"] = wrap(sum_, r.acc_bits)
        if counter != design.limit:
            regs["counter"] = (counter + 1) % (1 << r.counter_bits)
            continue
        regs["counter"] = 0
        kind, target = design.arms.get(state, (design.fallback,) * 2)[0 if regs["acc"] >= 0 else 1]
        if kind == "leaf":
            regs["done"], regs["class_out"], rose = 1, target, clock
        else:
            regs["state"] = target
    return regs["class_out"], regs["state"], rose
