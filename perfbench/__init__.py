"""Repository benchmark: four workloads over the engine, the tuple-level
executor and the Spark SSE plane.  Entry point: ``perfbench/run.py``."""
