"""Property tests that drive the command line in-process on generated
input built from edge tokens: no exception escapes, every failure is one
documented exit code with one message line, and a success prints only
finite energies.

Valid files have at most 4 qubits; larger qubit counts (21, 99) are
refused before any register is allocated."""

import contextlib
import io
import math
import tempfile
from pathlib import Path

from hypothesis import event, given, settings
from hypothesis import strategies as st

from hqcnn.cli import ConfigError, main, parse_config

# "\u0662" is an Arabic-Indic two.
FINITE = ["0.5", "-1", "1.0", ".5", "1e308", "-1e308", "1e-320"]
REALS = FINITE + ["nan", "inf", "-inf", "1e999", "1_0", "\u0662", ""]
QUBITS = ["0", "1", "2", "3", "4", "21", "99", "", "\u0662", "1_0", "-1", "2.0"]
ERROR_PREFIXES = ("config error: ", "data error: ", "numerical failure: ")


@st.composite
def ham_texts(draw):
    """A .ham text: a qubits header, a bond_length and terms, mostly
    valid, with junk, repeated or empty lines inserted and the bond_length
    sometimes left out."""
    qubits = draw(st.sampled_from(["1", "2", "3", "4"]) | st.sampled_from(QUBITS))
    width = int(qubits) if qubits in ("1", "2", "3", "4") else draw(st.integers(1, 4))
    real = st.sampled_from(4 * FINITE + REALS)
    term = st.tuples(real, st.text("IXYZ", min_size=width, max_size=width)).map(
        lambda pair: f"term: {pair[0]} {pair[1]}"
    )
    lines = [f"qubits: {qubits}"]
    if draw(st.integers(0, 3)):
        lines.append(f"bond_length: {draw(real)}")
    lines += draw(st.lists(term, max_size=4))
    junk = ["# comment", "", "term:", "qubits:", "bond_length:", "spin: 1"]
    extra = st.sampled_from(lines + junk)
    for line in draw(st.lists(extra, max_size=1)):
        lines.insert(draw(st.integers(0, len(lines))), line)
    return "\n".join(lines) + "\n"


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(
    texts=st.lists(ham_texts(), min_size=1, max_size=2),
    bond_lengths=st.just([]) | st.lists(st.sampled_from(REALS), max_size=2),
)
def test_diag_on_generated_ham_files(texts, bond_lengths):
    with tempfile.TemporaryDirectory() as directory:
        for i, text in enumerate(texts):
            (Path(directory) / f"f{i}.ham").write_text(text, encoding="utf-8")
        argv = ["diag", "--dataset-dir", directory, "--bond-lengths", *bond_lengths]
        code, out, err = _run(argv)
    event(f"exit {code}")
    assert code in (0, 1, 2, 3)
    # A file without a bond_length is reported as skipped, whatever the
    # outcome; every other stderr line is the one error message.
    messages = [line for line in err.splitlines() if not line.startswith("skipped ")]
    if code == 0:
        assert messages == []
        header, *rows = out.splitlines()
        assert header == "bond_length,ground_energy" and rows
        for row in rows:
            assert all(math.isfinite(float(value)) for value in row.split(","))
    else:
        assert len(messages) == 1 and messages[0].startswith(ERROR_PREFIXES)
        assert out == ""


CONFIG_KEYS = [
    "dataset_dir", "output_dir", "variant", "label", "train_bond_lengths", "test_bond_lengths",
    "seeds", "max_iterations", "gradient_norm_tolerance", "finite_difference_step", "spin",
]
CONFIG_VALUES = REALS + QUBITS + ["both", "with_measurements", "d", "0 1", "0.2 0.6", "0.5 0.5"]


@settings(max_examples=300, deadline=None)
@given(
    lines=st.lists(
        st.one_of(
            st.tuples(st.sampled_from(CONFIG_KEYS), st.sampled_from(CONFIG_VALUES)).map(
                lambda pair: f"{pair[0]}: {pair[1]}"
            ),
            st.sampled_from(["dataset_dir: d", "output_dir: o", "# comment", "", "no colon"]),
        ),
        max_size=10,
    )
)
def test_parse_config_raises_only_config_errors(lines):
    try:
        parse_config("\n".join(lines))
    except ConfigError:
        pass
