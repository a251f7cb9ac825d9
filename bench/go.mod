module redhanded/bench

go 1.24

require redhanded v0.0.0

replace redhanded => ../
