"""The system's own claims (`claims.py`) and their runner (`run.py`)."""
