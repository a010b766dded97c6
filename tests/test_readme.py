"""The README documents the config keys the parser accepts."""

import importlib
import os
import re

from matmi import cli

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")

#: file-name suffixes, which look like ``section.key`` (``data.csv``)
FILE_SUFFIXES = {"csv", "vtk", "cfg"}


def readme_text():
    with open(README) as handle:
        return handle.read()


def fenced_blocks(text):
    """The contents of the fenced code blocks of ``text``, in order."""
    blocks, current = [], None
    for line in text.splitlines(keepends=True):
        if line.startswith("```"):
            if current is None:
                current = []
            else:
                blocks.append("".join(current))
                current = None
        elif current is not None:
            current.append(line)
    return blocks


def test_example_config_parses():
    # the config example is the fenced block that opens with a key
    examples = [block for block in fenced_blocks(readme_text()) if block.startswith("mesh.n =")]
    assert len(examples) == 1
    cli.parse_config(examples[0])


def names_code(section, name):
    """Whether ``section.name`` is an attribute of the module ``matmi.<section>``."""
    try:
        module = importlib.import_module(f"matmi.{section}")
    except ImportError:
        return False
    return hasattr(module, name)


def test_backticked_config_keys_exist():
    sections = {key.split(".")[0] for key in cli._KEYS}
    tokens = re.findall(r"`([a-z][a-z_0-9]*)\.([a-z][a-z_0-9]*)", readme_text())
    named = {f"{section}.{key}" for section, key in tokens
             if section in sections and key not in FILE_SUFFIXES
             and not names_code(section, key)}
    assert named, "no config key found in the README"
    assert named <= set(cli._KEYS), sorted(named - set(cli._KEYS))
