"""Each test starts and ends with an empty CLI answer cache: a kept
answer skips its command, so without this an answer one test leaves
would reach a later test that patches a function the command calls."""

import pytest

from hnbundles.cli import run_command


@pytest.fixture(autouse=True)
def empty_answer_cache():
    run_command.cache_clear()
    yield
    run_command.cache_clear()
