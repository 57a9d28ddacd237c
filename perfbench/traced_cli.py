"""One diskkernels CLI call under the span tracer.

    python3 perfbench/traced_cli.py <diskkernels arguments>

Behaves like ``python -m diskkernels`` (src/ must be on PYTHONPATH) and adds
one last stderr line, ``PERFBENCH_SPANS <json>``, holding the spans of the
package import and of ``cli.main``.
"""

import json
import sys
import time
from pathlib import Path

t0 = time.perf_counter()
import diskkernels  # noqa: E402
import diskkernels.cli  # noqa: E402

t1 = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent))
import spans  # noqa: E402

tracer = spans.Tracer()
tracer.spans.append(["import", "import.diskkernels", None, t0, t1, None])
tracer.install(diskkernels)
tracer.enabled = True
code = diskkernels.cli.main(sys.argv[1:])
tracer.enabled = False
sys.stdout.flush()
sys.stderr.write("\nPERFBENCH_SPANS %s\n" % json.dumps(tracer.spans))
sys.exit(code)
