module spinngo/bench

go 1.24

require spinngo v0.0.0

replace spinngo => ../
