import sys

import run  # pins the BLAS thread pools before numpy is imported

sys.path.insert(0, str(run.ROOT / "src"))
