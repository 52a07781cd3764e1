"""Verilog emission for the sequential classifier plus golden stimulus and
expectation files for external HDL simulation.

The dialect is a conservative synthesizable subset: one clock, synchronous
active-high reset, no latches. Inputs arrive as a flat bus of m*input_bits
with the engine indexing by its column counter. Generation is pure text
assembly, so identical models produce byte-identical output.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .archsim import counter_bits, latency_cycles
from .ddag import class_bits, pair_index, state_bits_for, transitions, walk_batch
from .fxp import fits
from .quant import QuantizedModel


@dataclass
class HdlBundle:
    name: str
    top_module: str
    params_module: str
    testbench: str


def _sd(value: int, bits: int) -> str:
    """Signed decimal Verilog literal."""
    if not fits(value, bits):
        raise ValueError(f"literal {value} exceeds {bits} signed bits")
    return f"-{bits}'sd{-value}" if value < 0 else f"{bits}'sd{value}"


def _ud(value: int, bits: int) -> str:
    if value < 0 or value >= (1 << bits):
        raise ValueError(f"literal {value} exceeds {bits} unsigned bits")
    return f"{bits}'d{value}"


# ---------------------------------------------------------------------------
# Parameter storage module
# ---------------------------------------------------------------------------


def _gen_params(qm: QuantizedModel, name: str) -> str:
    rows, cols = qm.words.shape
    wb = qm.param_bits
    row_bits = state_bits_for(qm.n_classes)  # the row address is the FSM state
    col_bits = counter_bits(qm.n_features)
    key_bits = row_bits + col_bits

    lines = [
        f"// {name}_params.v -- generated constant parameter storage, do not edit",
        f"// rows={rows} cols={cols} word_bits={wb} row_bits={row_bits} col_bits={col_bits}",
        f"module {name}_params (",
        f"    input  wire [{row_bits - 1}:0] row,",
        f"    input  wire [{col_bits - 1}:0] col,",
        f"    output reg  signed [{wb - 1}:0] word",
        ");",
        "    always @* begin",
        "        case ({row, col})",
    ]
    for r, values in enumerate(qm.words.tolist()):
        for c, value in enumerate(values):
            key = (r << col_bits) | c
            lines.append(f"            {_ud(key, key_bits)}: word = {_sd(value, wb)};")
    lines += [
        f"            default: word = {_sd(0, wb)};",
        "        endcase",
        "    end",
        "endmodule",
    ]
    return "\n".join(lines) + "\n"


def parse_storage_constants(params_text: str) -> list[list[int]]:
    """Recover the stored integer table from emitted storage text.

    Reads the dims comment, then decodes each case key back to (row, col).
    Used as a self-check that HDL literals equal the model's tables.
    """
    dims = re.search(
        r"rows=(\d+) cols=(\d+) word_bits=(\d+) row_bits=(\d+) col_bits=(\d+)", params_text
    )
    if not dims:
        raise ValueError("missing dims comment in storage text")
    rows, cols, _wb, _row_bits, col_bits = (int(g) for g in dims.groups())
    table: list[list[int | None]] = [[None] * cols for _ in range(rows)]
    for m in re.finditer(r"(\d+)'d(\d+): word = (-?)\d+'sd(\d+);", params_text):
        key = int(m.group(2))
        row, col = key >> col_bits, key & ((1 << col_bits) - 1)
        value = int(m.group(4))
        table[row][col] = -value if m.group(3) == "-" else value
    for r, row in enumerate(table):
        if any(v is None for v in row):
            raise ValueError(f"row {r}: incomplete storage case")
    return [[int(v) for v in row] for row in table]


# ---------------------------------------------------------------------------
# Top module: engine + control FSM
# ---------------------------------------------------------------------------


def _fsm_case(n_classes: int, state_bits: int, class_bits: int, indent: str) -> str:
    arms = []
    for state, lo, hi, on_a, on_b in transitions(n_classes):
        branches = []
        for cond, (kind, target) in (("if (y)", on_a), ("else  ", on_b)):
            if kind == "leaf":
                action = f"begin done <= 1'b1; class_out <= {_ud(target, class_bits)}; end"
            else:
                action = f"state <= {_ud(target, state_bits)};"
            branches.append(f"{indent}        {cond} {action}")
        arms.append(
            f"{indent}{_ud(state, state_bits)}: begin  // pair ({lo},{hi})\n"
            + "\n".join(branches)
            + f"\n{indent}end"
        )
    arms.append(f"{indent}default: begin done <= 1'b1; class_out <= {_ud(0, class_bits)}; end")
    return "\n".join(arms)


def _gen_top(qm: QuantizedModel, name: str) -> str:
    m = qm.n_features
    ib = qm.input_fmt.total_bits
    wb = qm.param_bits
    ab = qm.acc_width
    cnt_bits = counter_bits(m)
    n = qm.n_classes
    sb = state_bits_for(n)
    cb = class_bits(n)
    bus_bits = m * ib
    init = _ud(pair_index(0, n - 1, n), sb)
    zero_cnt = _ud(0, cnt_bits)
    # the bias shares the products' binary point: word << bias_shift
    shift = qm.bias_shift

    fsm = _fsm_case(n, sb, cb, " " * 16)
    return f"""// {name}_top.v -- generated sequential one-vs-one SVM classifier, do not edit
// classes={n} features={m} input_bits={ib} word_bits={wb} acc_bits={ab} state_bits={sb}
// A classification takes ({n}-1)*({m}+1) = {latency_cycles(n, m)} cycles after start.
module {name}_top (
    input  wire clk,
    input  wire rst,    // synchronous, active high
    input  wire start,  // pulse for one cycle with x_bus held stable
    input  wire [{bus_bits - 1}:0] x_bus,  // feature i at bits [i*{ib} +: {ib}]
    output reg  done,
    output reg  [{cb - 1}:0] class_out
);
    localparam integer M = {m};

    reg  [{cnt_bits - 1}:0] counter;
    reg  signed [{ab - 1}:0] acc;
    reg  [{sb - 1}:0] state;
    reg  running;

    // state id doubles as the storage row index
    wire [{sb - 1}:0] row = state;
    wire [{cnt_bits - 1}:0] col = counter;
    wire signed [{wb - 1}:0] word;
    {name}_params params_i (.row(row), .col(col), .word(word));

    wire [{cnt_bits - 1}:0] xi = (counter == {zero_cnt}) ? {zero_cnt} : (counter - {_ud(1, cnt_bits)});
    wire [{ib - 1}:0] x_cur = x_bus[xi * {ib} +: {ib}];

    // widths truncate to the accumulator, wrapping exactly like the reference model
    wire signed [{ab - 1}:0] product   = word * $signed({{1'b0, x_cur}});
    wire signed [{ab - 1}:0] bias_init = $signed({{word, {shift}'d0}});
    wire signed [{ab - 1}:0] acc_next  = (counter == {zero_cnt}) ? bias_init : (acc + product);
    wire y = ~acc_next[{ab - 1}];  // 1 when the finished sum is >= 0

    always @(posedge clk) begin
        if (rst) begin
            running   <= 1'b0;
            done      <= 1'b0;
            class_out <= {_ud(0, cb)};
            counter   <= {zero_cnt};
            state     <= {init};
            acc       <= {_sd(0, ab)};
        end else if (start) begin
            running   <= 1'b1;
            done      <= 1'b0;
            class_out <= {_ud(0, cb)};
            counter   <= {zero_cnt};
            state     <= {init};
            acc       <= {_sd(0, ab)};
        end else if (running && !done) begin
            acc <= acc_next;
            if (counter != {_ud(m, cnt_bits)}) begin
                counter <= counter + {_ud(1, cnt_bits)};
            end else begin
                // last word of this support vector: commit the comparison
                counter <= {zero_cnt};
                case (state)
{fsm}
                endcase
            end
        end
    end
endmodule
"""


def _gen_testbench(qm: QuantizedModel, name: str) -> str:
    m = qm.n_features
    ib = qm.input_fmt.total_bits
    cb = class_bits(qm.n_classes)
    bus_bits = m * ib
    return f"""// {name}_tb.v -- generated self-checking testbench, do not edit
// Reads vectors.stim ({m} input codes + cycle budget per line) and
// vectors.expect (class + final FSM state per line); '#' lines are headers.
`timescale 1ns/1ps
module {name}_tb;
    reg clk = 1'b0;
    always #5 clk = ~clk;
    reg rst = 1'b1;
    reg start = 1'b0;
    reg [{bus_bits - 1}:0] x_bus = {bus_bits}'d0;
    wire done;
    wire [{cb - 1}:0] class_out;

    {name}_top dut (
        .clk(clk), .rst(rst), .start(start), .x_bus(x_bus),
        .done(done), .class_out(class_out)
    );

    integer stim, expf, status, i, budget, errors, nvec;
    integer exp_class, exp_state;
    integer code;
    reg [8*512-1:0] line;

    initial begin
        errors = 0;
        nvec = 0;
        stim = $fopen("vectors.stim", "r");
        expf = $fopen("vectors.expect", "r");
        if (stim == 0 || expf == 0) begin
            $display("FAIL: vector files not found");
            $finish;
        end
        status = $fgets(line, stim);
        status = $fgets(line, expf);
        @(negedge clk) rst = 1'b0;
        while (!$feof(stim)) begin
            status = $fscanf(stim, "%d", code);
            if (status == 1) begin
                x_bus[0 +: {ib}] = code[{ib - 1}:0];
                for (i = 1; i < {m}; i = i + 1) begin
                    status = $fscanf(stim, "%d", code);
                    x_bus[i*{ib} +: {ib}] = code[{ib - 1}:0];
                end
                status = $fscanf(stim, "%d\\n", budget);
                status = $fscanf(expf, "%d %d\\n", exp_class, exp_state);
                @(negedge clk) start = 1'b1;
                @(negedge clk) start = 1'b0;
                for (i = 0; i < budget; i = i + 1) @(negedge clk);
                nvec = nvec + 1;
                if (!done || class_out !== exp_class[{cb - 1}:0]) begin
                    errors = errors + 1;
                    $display("FAIL vector %0d: done=%b class=%0d expected=%0d",
                             nvec, done, class_out, exp_class);
                end
            end
        end
        if (errors == 0) $display("PASS: %0d vectors matched", nvec);
        else $display("FAIL: %0d of %0d vectors mismatched", errors, nvec);
        $finish;
    end
endmodule
"""


def generate(qm: QuantizedModel, name: str = "svm") -> HdlBundle:
    """Instantiate the templates for one trained model.

    The engine differs between models only in widths; the FSM case structure
    is unique per model. Both storage kinds read identically, so the emitted
    lookup serves mux and rom configurations alike. The Verilog reads storage
    row ``state``, as every walk in the simulators does.
    """
    qm.profiled_acc_width()
    return HdlBundle(
        name=name,
        top_module=_gen_top(qm, name),
        params_module=_gen_params(qm, name),
        testbench=_gen_testbench(qm, name),
    )


# ---------------------------------------------------------------------------
# Golden vectors
# ---------------------------------------------------------------------------

STIM_HEADER = "# stimulus: x0..x{last} cycle_budget"
EXPECT_HEADER = "# expectation: class final_fsm_state"


def emit_golden_vectors(qm: QuantizedModel, test_codes, count: int) -> tuple[str, str, list[int]]:
    """Simulate the first `count` inputs and freeze stimulus/expectation text.

    Every expectation, class and final FSM state, comes from the batch
    simulator (bit-exact with the cycle-accurate one); the budget field is
    the exact cycle count (n-1)*(m+1). Returns the two texts and the
    expected class of each vector.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    budget = latency_cycles(qm.n_classes, qm.n_features)
    X = np.asarray(test_codes, dtype=np.int64)[:count]
    classes, states, _ = walk_batch(qm, X, qm.profiled_acc_width())
    stim_lines = [STIM_HEADER.format(last=qm.n_features - 1)]
    expect_lines = [EXPECT_HEADER]
    for codes, cls, state in zip(X.tolist(), classes.tolist(), states.tolist()):
        stim_lines.append(" ".join(str(c) for c in codes) + f" {budget}")
        expect_lines.append(f"{cls} {state}")
    return "\n".join(stim_lines) + "\n", "\n".join(expect_lines) + "\n", classes.tolist()


def write_bundle(bundle: HdlBundle, outdir) -> list[Path]:
    """Write the three .v files; returns the paths written."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = []
    for suffix, text in (
        ("top", bundle.top_module),
        ("params", bundle.params_module),
        ("tb", bundle.testbench),
    ):
        path = outdir / f"{bundle.name}_{suffix}.v"
        path.write_text(text)
        paths.append(path)
    return paths
