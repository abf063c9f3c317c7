"""Property test for the command line: whatever `.cfg` and `.obf` text
it is given, `obfuscate`, `run` and `dot` exit with a documented code
and never raise. Exit code 1 is reserved for a failed verify, so none
of these commands may return it."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from test_parse_properties import TOKENS
from threadsplit.cli import main
from threadsplit.kernels import KERNELS, kernel_text
from threadsplit.obfuscate import obfuscate, program_to_json
from threadsplit.textfmt import parse

# Each kernel with an artifact for it, plus programs that trap and loop.
SOURCES = [kernel_text(name) for name in KERNELS] + [
    "func boom {\n  block a:\n    x = 1\n    q = x / zero\n    halt\n}\n",
    "func spin {\n  block loop:\n    c = 0\n    br c, end, loop\n  block end:\n    halt\n}\n",
]
ARTIFACTS = [program_to_json(obfuscate(parse(text), 2, seed=1)) for text in SOURCES]

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 20) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                               max_size=3),
    max_leaves=6,
)


def _edit_text(draw, text: str) -> str:
    """Cut up to three characters at one place and put a token there."""
    pos = draw(st.integers(0, len(text)))
    cut = draw(st.integers(0, 3))
    return text[:pos] + draw(st.sampled_from(TOKENS)) + text[pos + cut:]


def _edit_json(draw, text: str) -> str:
    """Replace or delete one value anywhere in an artifact."""
    def any_key(node):
        return draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))

    doc = node = json.loads(text)
    key = any_key(node)
    while isinstance(node[key], (dict, list)) and node[key] and draw(st.booleans()):
        node = node[key]
        key = any_key(node)
    if draw(st.booleans()):
        node[key] = draw(JSON_VALUES)
    else:
        del node[key]
    return json.dumps(doc)


@st.composite
def texts(draw):
    """(cfg text, obf text): one source and its own artifact, each kept,
    edited or replaced by arbitrary text, independently."""
    i = draw(st.integers(0, len(SOURCES) - 1))
    how = draw(st.sampled_from(["keep", "edit", "arbitrary"]))
    if how == "keep":
        cfg_text = SOURCES[i]
    elif how == "edit":
        cfg_text = _edit_text(draw, SOURCES[i])
    else:
        cfg_text = draw(st.text(max_size=80))
    how = draw(st.sampled_from(["keep", "edit text", "edit json", "arbitrary"]))
    if how == "keep":
        obf_text = ARTIFACTS[i]
    elif how == "edit text":
        obf_text = _edit_text(draw, ARTIFACTS[i])
    elif how == "edit json":
        obf_text = _edit_json(draw, ARTIFACTS[i])
    else:
        obf_text = draw(st.text(max_size=80))
    return cfg_text, obf_text


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-props")


@given(texts())
def test_cli_exit_codes_on_any_input(workdir, pair):
    cfg, obf = workdir / "p.cfg", workdir / "p.obf"
    cfg.write_text(pair[0])
    obf.write_text(pair[1])
    commands = [
        ["obfuscate", "-i", str(cfg), "-m", "2", "-o", str(workdir / "out.obf")],
        ["run", "-i", str(cfg), "--mode", "seq", "--budget", "300"],
        ["run", "-i", str(cfg), "--obf", str(obf), "--mode", "sched", "--budget", "300"],
        ["dot", "-i", str(cfg), "--obf", str(obf), "--out-dir", str(workdir / "dots")],
    ]
    for argv in commands:
        assert main(argv) in (0, 2, 3, 4), argv
