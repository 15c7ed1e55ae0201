module safehome/benchmark

go 1.24

require safehome v0.0.0

replace safehome => ../
