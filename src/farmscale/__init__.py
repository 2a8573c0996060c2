"""Virtual-time simulator and autoscaling policies for a serverless task farm."""
