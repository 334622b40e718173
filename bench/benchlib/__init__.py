"""Support code for ``bench/run.py``: statistics, tracing, load generation
and the four workloads.  Nothing here is imported by the ``repro``
package; the benchmark drives ``repro`` from the outside."""
