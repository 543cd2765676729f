"""Start the reachability recorder in every process it runs (see reachability.py)."""
import os

if os.environ.get("REPRO_REACH_DIR"):
    import reachability

    reachability.install(os.environ["REPRO_REACH_DIR"])
