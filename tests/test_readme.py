"""The README's code examples run as written.

Its ```python blocks execute in order in one namespace, and every ```json
block parses as an experiment config, so a renamed key or signature fails
here instead of only in the docs. The config section names every
top-level key the parser accepts.
"""

import json
import re
from pathlib import Path

from expmc.bench import _CONFIG_KEYS, ExperimentConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(), flags=re.DOTALL | re.MULTILINE)


def test_python_examples_run():
    sources = blocks("python")
    assert sources
    namespace = {}
    for source in sources:
        exec(compile(source, str(README), "exec"), namespace)


def test_json_examples_are_valid_configs():
    sources = blocks("json")
    assert sources
    for source in sources:
        ExperimentConfig.from_dict(json.loads(source))


def test_config_section_names_every_accepted_key():
    text = README.read_text()
    section = text[text.index("Config schema (JSON)"):text.index("File formats:")]
    named = set(re.findall(r"`(\w+)`", section))
    assert _CONFIG_KEYS <= named, sorted(_CONFIG_KEYS - named)
    for source in blocks("json"):
        assert set(json.loads(source)) <= _CONFIG_KEYS
