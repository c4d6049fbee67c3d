import ast
import re
from collections import Counter
from pathlib import Path

from conftest import PINS_FILE, read_pins

TESTS = Path(__file__).parent
WORKFLOWS = TESTS.parent / ".github" / "workflows"
DIGEST = re.compile(r"[0-9a-f]{64}")
# a CI step picks its registry lines with grep -F -e '  <name>' ...
CI_READ = re.compile(r"-e '  ([^']+)'")


def test_every_pin_lives_in_the_registry_and_is_read():
    bad = [line for line in PINS_FILE.read_text().splitlines()
           if not re.fullmatch(r"[0-9a-f]{64}  \S+", line)]
    assert not bad, f"{PINS_FILE.name} lines not '<64 lowercase hex>  <name>': {bad}"
    pins = read_pins()
    repeated = [name for name, n in Counter(name for _, name in pins).items() if n > 1]
    assert not repeated, f"names repeated in {PINS_FILE.name}: {repeated}"

    sources = [*TESTS.glob("*.py"), *WORKFLOWS.glob("*.y*ml")]
    held = [f"{path.name}:{n}" for path in sources
            for n, line in enumerate(path.read_text().splitlines(), 1) if DIGEST.search(line)]
    assert not held, f"64-hex literals outside {PINS_FILE.name}: {held}"

    # a test reads a pin by its name as a string literal; a CI step by a grep
    test_reads = {node.value for path in TESTS.glob("test_*.py")
                  for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    ci_reads = {name for path in WORKFLOWS.glob("*.y*ml")
                for name in CI_READ.findall(path.read_text())}
    names = {name for _, name in pins}
    unread = sorted(names - test_reads - ci_reads)
    assert not unread, f"pins no test or CI step reads: {unread}"
    missing = sorted(ci_reads - names)
    assert not missing, f"pins CI steps read that {PINS_FILE.name} lacks: {missing}"
