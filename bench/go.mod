module github.com/gms-sim/gmsubpage/bench

go 1.22

require github.com/gms-sim/gmsubpage v0.0.0

replace github.com/gms-sim/gmsubpage => ../
