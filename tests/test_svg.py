import xml.etree.ElementTree as ET

from lobflow import svg

NS = "{http://www.w3.org/2000/svg}"


def test_chart_text_is_escaped(tmp_path):
    path = tmp_path / "c.svg"
    svg.line_chart({"x&y": [1.0, 2.0], "<z>": [0.5, 0.0]}, path, title="a<b&c",
                   ylabel="p < 0.05 & more", x_labels=["d>1", "d&2"])
    texts = [t.text for t in ET.parse(path).getroot().iter(NS + "text")]
    for label in ("a<b&c", "p < 0.05 & more", "x&y", "<z>", "d>1", "d&2"):
        assert label in texts

