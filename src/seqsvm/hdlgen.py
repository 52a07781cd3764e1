"""Verilog emission for the sequential classifier plus golden stimulus and
expectation files for external HDL simulation.

The dialect is a conservative synthesizable subset: one clock, synchronous
active-high reset, no latches. Inputs arrive as a flat bus of m*input_bits
with the engine indexing by its column counter. The text prints the model's
word table, the FSM of ``ddag.transitions`` and the widths and counts of
``archsim.rtl``, which derives each once. Generation is pure text assembly,
so identical models produce byte-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .archsim import Rtl, rtl
from .ddag import transitions, walk_batch
from .fxp import check_int, fits
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


def _gen_params(qm: QuantizedModel, r: Rtl, name: str) -> str:
    rows, cols = qm.words.shape
    lines = [
        f"// {name}_params.v -- generated constant parameter storage, do not edit",
        f"// rows={rows} cols={cols} word_bits={r.word_bits} row_bits={r.state_bits} col_bits={r.counter_bits}",
        f"module {name}_params (",
        f"    input  wire [{r.state_bits - 1}:0] row,",  # the row address is the FSM state
        f"    input  wire [{r.counter_bits - 1}:0] col,",
        f"    output reg  signed [{r.word_bits - 1}:0] word",
        ");",
        "    always @* begin",
        "        case ({row, col})",
    ]
    # one checked literal per distinct word; every key fits its bits, as
    # row < 2**state_bits and col <= m < 2**counter_bits
    literal = {value: _sd(value, r.word_bits) for value in set(qm.words.ravel().tolist())}
    key_bits = r.state_bits + r.counter_bits
    for row, values in enumerate(qm.words.tolist()):
        first = row << r.counter_bits
        lines += [f"            {key_bits}'d{first | col}: word = {literal[v]};" for col, v in enumerate(values)]
    lines += [
        f"            default: word = {_sd(0, r.word_bits)};",
        "        endcase",
        "    end",
        "endmodule",
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Top module: engine + control FSM
# ---------------------------------------------------------------------------


def _fsm_case(n_classes: int, r: Rtl, indent: str) -> str:
    arms = []
    for state, lo, hi, on_a, on_b in transitions(n_classes):
        branches = []
        for cond, (kind, target) in (("if (y)", on_a), ("else  ", on_b)):
            if kind == "leaf":
                action = f"begin done <= 1'b1; class_out <= {_ud(target, r.class_bits)}; end"
            else:
                action = f"state <= {_ud(target, r.state_bits)};"
            branches.append(f"{indent}        {cond} {action}")
        arms.append(
            f"{indent}{_ud(state, r.state_bits)}: begin  // pair ({lo},{hi})\n"
            + "\n".join(branches)
            + f"\n{indent}end"
        )
    arms.append(f"{indent}default: begin done <= 1'b1; class_out <= {_ud(0, r.class_bits)}; end")
    return "\n".join(arms)


def _restart(r: Rtl, running: str) -> str:
    """The register loads of the reset and start arms, which differ only in ``running``."""
    return f"""            running   <= 1'b{running};
            done      <= 1'b0;
            class_out <= {_ud(0, r.class_bits)};
            counter   <= {_ud(0, r.counter_bits)};
            state     <= {_ud(r.initial_state, r.state_bits)};
            acc       <= {_sd(0, r.acc_bits)};"""


def _gen_top(qm: QuantizedModel, r: Rtl, name: str) -> str:
    n, m = qm.n_classes, qm.n_features
    zero_cnt = _ud(0, r.counter_bits)
    return f"""// {name}_top.v -- generated sequential one-vs-one SVM classifier, do not edit
// classes={n} features={m} input_bits={r.input_bits} word_bits={r.word_bits} acc_bits={r.acc_bits} state_bits={r.state_bits}
// A classification takes ({n}-1)*({m}+1) = {r.cycles} cycles after start.
module {name}_top (
    input  wire clk,
    input  wire rst,    // synchronous, active high
    input  wire start,  // pulse for one cycle with x_bus held stable
    input  wire [{m * r.input_bits - 1}:0] x_bus,  // feature i at bits [i*{r.input_bits} +: {r.input_bits}]
    output reg  done,
    output reg  [{r.class_bits - 1}:0] class_out
);
    localparam integer M = {m};

    reg  [{r.counter_bits - 1}:0] counter;
    reg  signed [{r.acc_bits - 1}:0] acc;
    reg  [{r.state_bits - 1}:0] state;
    reg  running;

    // state id doubles as the storage row index
    wire [{r.state_bits - 1}:0] row = state;
    wire [{r.counter_bits - 1}:0] col = counter;
    wire signed [{r.word_bits - 1}:0] word;
    {name}_params params_i (.row(row), .col(col), .word(word));

    wire [{r.counter_bits - 1}:0] xi = (counter == {zero_cnt}) ? {zero_cnt} : (counter - {_ud(1, r.counter_bits)});
    wire [{r.input_bits - 1}:0] x_cur = x_bus[xi * {r.input_bits} +: {r.input_bits}];

    // widths truncate to the accumulator, wrapping exactly like the reference model
    wire signed [{r.acc_bits - 1}:0] product   = word * $signed({{1'b0, x_cur}});
    wire signed [{r.acc_bits - 1}:0] bias_init = $signed({{word, {r.bias_shift}'d0}});
    wire signed [{r.acc_bits - 1}:0] acc_next  = (counter == {zero_cnt}) ? bias_init : (acc + product);
    wire y = ~acc_next[{r.acc_bits - 1}];  // 1 when the finished sum is >= 0

    always @(posedge clk) begin
        if (rst) begin
{_restart(r, '0')}
        end else if (start) begin
{_restart(r, '1')}
        end else if (running && !done) begin
            acc <= acc_next;
            if (counter != {_ud(m, r.counter_bits)}) begin
                counter <= counter + {_ud(1, r.counter_bits)};
            end else begin
                // last word of this support vector: commit the comparison
                counter <= {zero_cnt};
                case (state)
{_fsm_case(n, r, " " * 16)}
                endcase
            end
        end
    end
endmodule
"""


def _gen_testbench(qm: QuantizedModel, r: Rtl, name: str) -> str:
    m = qm.n_features
    return f"""// {name}_tb.v -- generated self-checking testbench, do not edit
// Reads vectors.stim ({m} input codes + cycle budget per line) and
// vectors.expect (class + final FSM state per line); '#' lines are headers.
`timescale 1ns/1ps
module {name}_tb;
    reg clk = 1'b0;
    always #5 clk = ~clk;
    reg rst = 1'b1;
    reg start = 1'b0;
    reg [{m * r.input_bits - 1}:0] x_bus = {m * r.input_bits}'d0;
    wire done;
    wire [{r.class_bits - 1}:0] class_out;

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
                x_bus[0 +: {r.input_bits}] = code[{r.input_bits - 1}:0];
                for (i = 1; i < {m}; i = i + 1) begin
                    status = $fscanf(stim, "%d", code);
                    x_bus[i*{r.input_bits} +: {r.input_bits}] = code[{r.input_bits - 1}:0];
                end
                status = $fscanf(stim, "%d\\n", budget);
                status = $fscanf(expf, "%d %d\\n", exp_class, exp_state);
                @(negedge clk) start = 1'b1;
                @(negedge clk) start = 1'b0;
                for (i = 0; i < budget; i = i + 1) @(negedge clk);
                nvec = nvec + 1;
                // a leaf arm leaves the state on the last row read
                if (!done || class_out !== exp_class[{r.class_bits - 1}:0]
                        || dut.state !== exp_state[{r.state_bits - 1}:0]) begin
                    errors = errors + 1;
                    $display("FAIL vector %0d: done=%b class=%0d state=%0d expected=%0d %0d",
                             nvec, done, class_out, dut.state, exp_class, exp_state);
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
    r = rtl(qm)
    return HdlBundle(
        name=name,
        top_module=_gen_top(qm, r, name),
        params_module=_gen_params(qm, r, name),
        testbench=_gen_testbench(qm, r, name),
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
    check_int("count", count, 0)
    r = rtl(qm)
    X = np.asarray(test_codes, dtype=np.int64)[:count]
    classes, states, _ = walk_batch(qm, X, r.acc_bits)
    stim_lines = [STIM_HEADER.format(last=qm.n_features - 1)]
    expect_lines = [EXPECT_HEADER]
    for codes, cls, state in zip(X.tolist(), classes.tolist(), states.tolist()):
        stim_lines.append(" ".join(str(c) for c in codes) + f" {r.cycles}")
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
