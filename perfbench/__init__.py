"""End-to-end benchmark of the WSCCL reproduction.

``python3 perfbench/run.py --workload <tables|gps-ingest|serve-zipf>`` runs
one workload and prints its metrics; see ``perfbench/README.md``.
"""
