import io

import pytest

from splitmev.config import ConfigError, read_input

TEXTS = {
    "empty": "",
    "one-byte": "{",
    # a three-byte character across each boundary of a default read buffer
    "buffer-and-a-bit": "₮" * (io.DEFAULT_BUFFER_SIZE // 3 * 2 + 1),
    "over-1-MiB": "x₮\n" * (2**20 // 4),
}


@pytest.mark.parametrize("text", TEXTS.values(), ids=TEXTS)
def test_read_input_reads_the_whole_file(tmp_path, text):
    path = tmp_path / "input"
    path.write_bytes(text.encode("utf-8"))
    assert read_input(path, ConfigError) == (text, text.encode("utf-8"))

