"""The seqsig benchmark: workloads, spans and the runner (``perfbench/run.py``)."""
