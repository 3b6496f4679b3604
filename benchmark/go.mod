module tycoon/benchmark

go 1.22

require tycoon v0.0.0

replace tycoon => ../
