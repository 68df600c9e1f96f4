module fairmc/bench

go 1.22

require fairmc v0.0.0

replace fairmc => ../
