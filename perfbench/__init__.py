"""End-to-end benchmark of the IoT SENTINEL gateway (see ``run.py``)."""
