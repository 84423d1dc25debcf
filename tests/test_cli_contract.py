"""The command-line contract on generated inputs.

Every run of ``planlab solve``, ``verify``, ``dump-tree`` or ``experiment``
must end in a documented exit: 0 or 1 with no ``error:`` line, or 2 (usage,
parse or file error) or 3 (a ceiling) with exactly one ``error:`` line, and
never with an escaping exception.  Hypothesis drives ``cli.main`` in-process
over problem files made from valid problems by truncating them, injecting
bytes that are not UTF-8, or inserting lines: unknown sections and lines
that each break one rule of the problem format.  Experiment configs are
made from small valid ones by dropping, repeating or misspelling keys,
truncating values, giving an integer key a value that is not one, or
repeating a list entry.  The examples are derandomized, so every run checks
the same inputs.
"""

from __future__ import annotations

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from planlab.cli import main
from planlab.domains import d1s1_problem, fixture, serialize_problem
from planlab.planners import PLANNERS
from planlab.search import STRATEGIES

from test_properties import problems

# Lines that each break one rule of the problem format, and whether they
# break it inside an operator block rather than at the top level.
BREAKING_LINES = (
    ("problem a b", False),  # 'problem' with two names
    ("problem again", False),  # a second 'problem' line
    ("operator", False),  # 'operator' without a name
    ("operator inner", True),  # an operator opened inside another
    ("end", False),  # 'end' outside an operator
    ("init: a", True),  # a problem section inside an operator
    ("pre: a", False),  # an operator section outside an operator
    ("cadd: (a -> b)", False),  # a conditional section outside an operator
    ("  cadd: a", True),  # no '(' before a conditional effect
    ("  cadd: (a -> b", True),  # an unterminated conditional effect
    ("  cadd: (a b)", True),  # no '->' in a conditional effect
    ("  cdel: ( -> b)", True),  # an empty dependency
    ("  del: zz", True),  # a delete that is not a precondition
    ("goal: Bad", False),  # an invalid proposition
    ("what is this", False),  # neither a section nor a keyword
)
UNKNOWN_SECTIONS = ("colour: red", "  post: a", "goals: a", "Init: a")
NOT_UTF8 = (b"\xff", b"\xc3(", b"\x80", b"\xed\xa0\x80")

VALID = st.one_of(
    st.sampled_from(
        [serialize_problem(fixture(name)) for name in ("fig2", "fig4", "fig9", "fig13", "fig17")]
        + [serialize_problem(d1s1_problem([1, 2]))]
    ),
    problems().map(serialize_problem),
)
# No explain phase: on a break it re-renders each distinct failure many
# times and takes minutes to report what shrinking finds in seconds.
EXAMPLES = settings(
    max_examples=300,
    derandomize=True,
    database=None,
    deadline=None,
    phases=(Phase.explicit, Phase.generate, Phase.shrink),
)


@st.composite
def problem_files(draw) -> bytes:
    """A valid problem file, kept whole, edited line by line, cut short or
    given a byte that is not UTF-8."""
    text = draw(VALID)
    damage = draw(st.just("none") | st.sampled_from(("edit", "cut", "bytes")))
    if damage == "edit":
        lines = text.splitlines()
        for _ in range(draw(st.integers(1, 2))):
            at = draw(st.integers(0, len(lines)))
            edit = draw(st.sampled_from(("insert", "unknown", "drop")))
            if edit == "insert":
                lines.insert(at, draw(st.sampled_from(BREAKING_LINES))[0])
            elif edit == "unknown":
                lines.insert(at, draw(st.sampled_from(UNKNOWN_SECTIONS)))
            else:
                del lines[at : at + 1]
        text = "\n".join(lines)
    data = text.encode()
    if damage == "cut":
        data = data[: draw(st.integers(0, len(data)))]
    elif damage == "bytes":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(NOT_UTF8)) + data[at:]
    return data


@st.composite
def command_lines(draw) -> list[str]:
    """A command and its flags; the problem path is added by the test."""
    command = draw(st.sampled_from(("solve", "verify", "dump-tree")))
    argv = [
        command,
        "--depth-limit",
        draw(st.sampled_from(("auto", "-1", "0", "1", "2", "3"))),
        "--node-ceiling",
        str(draw(st.integers(1, 300))),
    ]
    if command == "verify":
        argv += draw(st.sampled_from(([], ["--conditional"], ["--mt"])))
    else:
        argv += ["--planner", draw(st.sampled_from(sorted(PLANNERS)))]
    if command == "solve":
        argv += ["--strategy", draw(st.sampled_from(STRATEGIES))]
    return argv


@pytest.fixture(scope="module")
def problem_path(tmp_path_factory):
    return tmp_path_factory.mktemp("contract") / "problem.plan"


def run_cli(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def assert_documented_exit(code: int, err: str) -> None:
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert code in (0, 1, 2, 3), code
    assert len(errors) == (1 if code in (2, 3) else 0), err


@EXAMPLES
@given(data=problem_files(), argv=command_lines())
def test_every_input_ends_in_a_documented_exit(problem_path, data, argv):
    problem_path.write_bytes(data)
    code, err = run_cli([argv[0], str(problem_path), *argv[1:]])
    assert_documented_exit(code, err)


FIG9 = serialize_problem(fixture("fig9"))


def _fig9_with(line: str, inside_operator: bool) -> str:
    lines = FIG9.splitlines()
    lines.insert(len(lines) - 1 if inside_operator else 1, line)
    return "\n".join(lines) + "\n"


MALFORMED = {line.strip(): _fig9_with(line, inside) for line, inside in BREAKING_LINES} | {
    "unknown-section": _fig9_with(UNKNOWN_SECTIONS[0], False),
    "unclosed-operator": FIG9.rsplit("end", 1)[0],
    "empty": "",
    "no-sections": "problem fig9\n",
}


@pytest.mark.parametrize("text", MALFORMED.values(), ids=MALFORMED.keys())
def test_each_format_error_is_refused_with_its_position(problem_path, text):
    problem_path.write_text(text, encoding="utf-8")
    code, err = run_cli(["solve", str(problem_path)])
    assert code == 2
    assert_documented_exit(code, err)
    assert err.startswith("error: line "), err


# The list keys of an experiment config and the entries a small run draws.
CONFIG_LISTS = {
    "problems": ("fixture:fig9", "fixture:fig2"),
    "planners": tuple(sorted(PLANNERS)),
    "strategies": STRATEGIES,
    "heuristics": ("none", "min_goals_rank"),
}
CONFIG_INTS = ("trials", "base_seed", "max_iterations")
# Keys a damaged config may lose.  The defaults of the others would run the
# 44-problem suite, 25 trials or 100,000 iterations, or write to the working
# directory.
CONFIG_DROPPABLE = ("planners", "strategies", "heuristics", "base_seed", "depth_limit", "format")


@st.composite
def experiment_configs(draw) -> list[tuple[str, str]]:
    """The (key, value) lines of a small experiment config, kept whole or
    damaged.  The output value is a file name the test puts in a directory
    of its own."""
    lines = [
        (key, ",".join(draw(st.lists(st.sampled_from(entries), min_size=1, max_size=2, unique=True))))
        for key, entries in CONFIG_LISTS.items()
    ]
    lines += [
        ("trials", draw(st.sampled_from(("1", "2")))),
        ("base_seed", str(draw(st.integers(0, 9)))),
        ("depth_limit", draw(st.sampled_from(("auto", "-1", "0", "1", "2", "3")))),
        ("max_iterations", str(draw(st.integers(1, 30)))),
        ("output", "rows.csv"),
        ("format", draw(st.sampled_from(("csv", "json")))),
    ]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(lines) - 1))
        key, value = lines[at]
        damage = draw(st.sampled_from(("drop", "repeat", "misspell", "truncate", "not-int", "list-repeat")))
        if damage == "drop" and key in CONFIG_DROPPABLE:
            del lines[at]
        elif damage == "repeat":
            lines.insert(draw(st.integers(0, len(lines))), (key, value))
        elif damage == "misspell":
            lines[at] = (draw(st.sampled_from((key[:-1], key + "s", key.capitalize()))), value)
        elif damage == "truncate":
            lines[at] = (key, value[: draw(st.integers(0, max(len(value) - 1, 0)))])
        elif damage == "not-int" and key in CONFIG_INTS:
            lines[at] = (key, draw(st.sampled_from(("abc", "1.5", "2x", "", "0x10"))))
        elif damage == "list-repeat" and key in CONFIG_LISTS:
            lines[at] = (key, f"{value},{value.split(',')[0]}")
    return lines


@pytest.fixture(scope="module")
def experiment_root(tmp_path_factory):
    return tmp_path_factory.mktemp("experiment")


@EXAMPLES
@given(lines=experiment_configs())
def test_every_experiment_config_ends_in_a_documented_exit(experiment_root, lines):
    out_dir = Path(tempfile.mkdtemp(dir=experiment_root))
    config = out_dir / "exp.cfg"
    config.write_text(
        "".join(f"{key} = {out_dir / value if key == 'output' else value}\n" for key, value in lines),
        encoding="utf-8",
    )
    code, err = run_cli(["experiment", str(config)])
    assert_documented_exit(code, err)
    written = [path.name for path in out_dir.iterdir() if path != config]
    assert len(written) == (2 if code == 0 else 0), (code, err, written)
